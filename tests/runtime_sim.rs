//! End-to-end tests of the online reconfiguration simulator, pinned to the
//! golden CI-smoke scenario (`tests/golden/smoke.scenario.json`).
//!
//! The acceptance criteria of the runtime subsystem live here:
//!
//! * the golden Fekete-style scenario completes with **zero constraint
//!   violations** under all three policies (no move ever overlaps a running
//!   module — checked both by the executor and by the configuration-memory
//!   model);
//! * the relocation-aware policy relocates **exactly 216** frames and the
//!   relocation-oblivious baseline **exactly 432** on that scenario;
//! * the `no_break` policy moves the same 216 frames with **zero
//!   stopped-module downtime** — every move is a double-buffered
//!   copy-then-switch — while the stop-and-move policies pay downtime for
//!   every frame they move;
//! * the `SimReport` v2 document round-trips through its jsonio
//!   reader/writer, and v1 documents stay readable.
//!
//! A second golden, `tests/golden/dense.sim.json`, pins a dense
//! 400-module stream on the 20x2 high-utilisation device: its report
//! records 148 escalations to the `combinatorial` engine (most of them
//! infeasibility proofs), so any change in what the engine returns for
//! them (waste, proof, rectangles) shows up as a byte diff.
//!
//! Regenerate the golden files with:
//!
//! ```text
//! cargo test --test runtime_sim -- --ignored regenerate_golden_scenario
//! cargo test --test runtime_sim -- --ignored regenerate_dense_golden
//! ```

use relocfp::runtime::{
    read_scenario, read_sim_report, simulate, write_scenario, DefragPolicy, OnlineConfig, SimReport,
};
use rfp_workloads::{smoke_scenario, smoke_scenario_json, DefragWorkloadSpec};
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/smoke.scenario.json")
}

fn golden() -> String {
    std::fs::read_to_string(golden_path())
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", golden_path().display()))
}

fn run(policy: DefragPolicy) -> SimReport {
    let scenario = read_scenario(&golden()).expect("golden scenario parses");
    let config = OnlineConfig { policy, ..OnlineConfig::default() };
    simulate(&scenario, &config).expect("golden scenario simulates")
}

fn dense_golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/dense.sim.json")
}

/// The dense-stream report under the aware policy and the `combinatorial`
/// engine, with its wall-clock columns zeroed so the document is
/// deterministic.
fn dense_report_json() -> String {
    let spec = DefragWorkloadSpec { n_modules: 400, ..DefragWorkloadSpec::high_utilisation(0) };
    let config = OnlineConfig {
        engine: "combinatorial".to_string(),
        policy: DefragPolicy::RelocationAware,
        ..OnlineConfig::default()
    };
    let mut report = simulate(&spec.generate(), &config).expect("dense stream simulates");
    report.wall_seconds = 0.0;
    for e in &mut report.events {
        e.latency_seconds = 0.0;
    }
    report.to_json()
}

#[test]
fn dense_stream_escalations_match_the_golden_report() {
    let golden = std::fs::read_to_string(dense_golden_path())
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dense_golden_path().display()));
    let report = dense_report_json();
    let escalations = read_sim_report(&report).expect("dense report parses").escalations();
    assert!(escalations >= 100, "the dense stream must escalate often, got {escalations}");
    assert!(
        report == golden,
        "tests/golden/dense.sim.json drifted; regenerate with \
         `cargo test --test runtime_sim -- --ignored regenerate_dense_golden`"
    );
}

#[test]
fn golden_scenario_file_is_current() {
    assert_eq!(
        golden(),
        smoke_scenario_json(),
        "tests/golden/smoke.scenario.json is stale; regenerate with \
         `cargo test --test runtime_sim -- --ignored regenerate_golden_scenario`"
    );
}

#[test]
fn golden_scenario_round_trips() {
    let scenario = read_scenario(&golden()).unwrap();
    assert!(scenario.validate().is_empty());
    assert_eq!(scenario, smoke_scenario());
    assert_eq!(write_scenario(&scenario), golden());
}

#[test]
fn golden_scenario_completes_with_zero_violations_under_all_policies() {
    for policy in DefragPolicy::ALL {
        let report = run(policy);
        assert_eq!(report.violations(), 0, "{policy:?} violated an invariant: {report:#?}");
        assert_eq!(report.rejected(), 0, "{policy:?} rejected an admissible module: {report:#?}");
        assert_eq!(report.arrivals(), 6);
        // The big arrival cannot fit without defragmentation.
        assert!(report.total_moves() > 0, "{policy:?} never moved a module: {report:#?}");
    }
}

#[test]
fn moved_frames_are_pinned_per_policy() {
    // The headline numbers of the three-way study, pinned exactly: the
    // aware policy frees the window with one 216-frame relocation, the
    // oblivious baseline left-compacts two modules (432 frames), and the
    // no-break policy uses the same single move as aware.
    assert_eq!(run(DefragPolicy::RelocationAware).frames_moved(), 216);
    assert_eq!(run(DefragPolicy::Oblivious).frames_moved(), 432);
    assert_eq!(run(DefragPolicy::NoBreak).frames_moved(), 216);
}

#[test]
fn relocation_aware_policy_relocates_strictly_fewer_frames_than_the_baseline() {
    let aware = run(DefragPolicy::RelocationAware);
    let oblivious = run(DefragPolicy::Oblivious);
    assert!(
        aware.frames_moved() < oblivious.frames_moved(),
        "aware policy moved {} frames, oblivious baseline {} — the aware plan must be \
         strictly cheaper\naware: {}\noblivious: {}",
        aware.frames_moved(),
        oblivious.frames_moved(),
        aware.summary(),
        oblivious.summary()
    );
    assert!(
        aware.relocation_cost() < oblivious.relocation_cost(),
        "aware cost {} must undercut oblivious cost {}",
        aware.relocation_cost(),
        oblivious.relocation_cost()
    );
    // On the all-CLB smoke device every aware move goes through the cheap
    // relocation filter — nothing is ever re-synthesised.
    assert_eq!(aware.frames_resynthesized(), 0);
}

#[test]
fn no_break_policy_eliminates_downtime_on_the_smoke_scenario() {
    let no_break = run(DefragPolicy::NoBreak);
    assert_eq!(
        no_break.downtime_frames(),
        0,
        "every no-break move on the smoke scenario must be double-buffered: {}",
        no_break.summary()
    );
    assert_eq!(no_break.violations(), 0);
    assert_eq!(no_break.rejected(), 0);
    // The stop-and-move policies pay downtime for every frame they move.
    for policy in [DefragPolicy::RelocationAware, DefragPolicy::Oblivious] {
        let report = run(policy);
        assert_eq!(
            report.downtime_frames(),
            report.frames_moved(),
            "{policy:?} is a stop-and-move executor: {}",
            report.summary()
        );
    }
}

#[test]
fn sim_reports_render_parseable_json() {
    let report = run(DefragPolicy::RelocationAware);
    let doc = report.to_json();
    let parsed = relocfp::floorplan::jsonio::parse(&doc).expect("report JSON parses");
    let totals = parsed.field("totals").unwrap();
    assert_eq!(
        totals.field("frames_relocated").unwrap().as_u64().unwrap(),
        report.frames_relocated()
    );
    assert_eq!(
        totals.field("downtime_frames").unwrap().as_u64().unwrap(),
        report.downtime_frames()
    );
    assert_eq!(totals.field("violations").unwrap().as_u64().unwrap(), 0);
    assert_eq!(parsed.field("events").unwrap().as_arr().unwrap().len(), report.events.len());
}

#[test]
fn sim_reports_round_trip_through_the_v2_reader() {
    for policy in DefragPolicy::ALL {
        let report = run(policy);
        let doc = report.to_json();
        let back = read_sim_report(&doc).expect("v2 report parses");
        assert_eq!(back, report, "{policy:?} report must round-trip");
        assert_eq!(back.to_json(), doc, "re-emission must be byte-identical");
    }
    // A v1 document (no downtime columns) still reads, with zero downtime.
    let v2 = run(DefragPolicy::NoBreak).to_json();
    let mut v1 = v2.replace("\"version\": 2", "\"version\": 1");
    v1 = v1.replace("    \"downtime_frames\": 0,\n", "");
    while let Some(at) = v1.find(",\"downtime_frames\":") {
        let end = at
            + ",\"downtime_frames\":".len()
            + v1[at + ",\"downtime_frames\":".len()..].find(',').expect("another column follows");
        v1.replace_range(at..end, "");
    }
    assert!(!v1.contains("downtime_frames"), "fixture must be a clean v1 document");
    let back = read_sim_report(&v1).expect("v1 report parses");
    assert_eq!(back.downtime_frames(), 0);
    assert_eq!(back.events.len(), run(DefragPolicy::NoBreak).events.len());
}

/// Rewrites the golden scenario file from the generator. Run explicitly
/// after changing the smoke scenario or the format.
#[test]
#[ignore]
fn regenerate_golden_scenario() {
    std::fs::write(golden_path(), smoke_scenario_json()).expect("write golden scenario");
}

/// Rewrites the dense-stream report golden. Run explicitly after an
/// intentional change to the simulator, the workload generator or the
/// escalation engine's results.
#[test]
#[ignore]
fn regenerate_dense_golden() {
    std::fs::write(dense_golden_path(), dense_report_json()).expect("write dense golden");
}
