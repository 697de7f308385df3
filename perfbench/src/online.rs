//! The online workload: reconfiguration event streams played through
//! `OnlineFloorplanner::step_batch`, one timestamp group per call, with
//! escalations solved by a one-worker `SolveService` — the wiring of
//! `rfp simulate`.

use crate::probe::TimedDispatcher;
use crate::stats::SplitMix64;
use crate::{Batch, Size};
use rfp_baselines::engines::full_registry;
use rfp_floorplan::candidates::{enumerate_candidates_uncached, CandidateConfig};
use rfp_runtime::{
    read_scenario, read_scenario_bin, simulate_with_dispatcher, write_scenario, write_scenario_bin,
    DefragPolicy, OnlineConfig, OnlineFloorplanner, Scenario, SimReport,
};
use rfp_service::{ServiceConfig, SolveService};
use rfp_trace::TraceHandle;
use rfp_workloads::DefragWorkloadSpec;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Generator seed of the streams. Fixed for the reason the MILP corpora are
/// (escalation counts and re-solve times vary several-fold between stream
/// seeds); the run seed only chooses the play order.
const STREAM_SEED: u64 = 0;

/// One stream and the policy it is played under.
#[derive(Debug, Clone)]
pub struct Stream {
    pub label: String,
    pub scenario: Scenario,
    pub policy: DefragPolicy,
}

/// The streams in canonical order: a high-utilisation columnar stream under
/// `aware` and under `no_break`, and a heterogeneous churn stream under
/// `aware`.
pub fn streams(size: Size) -> Vec<Stream> {
    let modules = match size {
        Size::Full => 400,
        Size::Tiny => 24,
    };
    let dense = DefragWorkloadSpec {
        n_modules: modules,
        ..DefragWorkloadSpec::high_utilisation(STREAM_SEED)
    }
    .generate();
    // 16x3 with striped BRAM every fourth column and a die boundary after
    // row 1: every module taller than one row crosses it, so relocations of
    // those modules are refused and regenerated.
    let hetero = DefragWorkloadSpec {
        seed: STREAM_SEED,
        n_modules: modules,
        bram_every: 4,
        hetero: true,
        ..DefragWorkloadSpec::default()
    }
    .generate();
    vec![
        Stream {
            label: "dense-aware".into(),
            scenario: dense.clone(),
            policy: DefragPolicy::RelocationAware,
        },
        Stream { label: "dense-no_break".into(), scenario: dense, policy: DefragPolicy::NoBreak },
        Stream {
            label: "hetero-aware".into(),
            scenario: hetero,
            policy: DefragPolicy::RelocationAware,
        },
    ]
}

/// The deterministic totals of a simulation report; two plays of one stream
/// must agree on every field.
pub fn totals(report: &SimReport) -> [u64; 9] {
    [
        report.events.len() as u64,
        report.arrivals(),
        report.rejected(),
        report.escalations(),
        report.total_moves(),
        report.frames_relocated(),
        report.frames_resynthesized(),
        report.downtime_frames(),
        report.violations(),
    ]
}

fn config(policy: DefragPolicy) -> OnlineConfig {
    OnlineConfig { policy, ..OnlineConfig::default() }
}

fn service(trace: Option<&TraceHandle>) -> Arc<SolveService> {
    Arc::new(SolveService::new(
        full_registry(),
        ServiceConfig { workers: 1, trace: trace.cloned(), ..ServiceConfig::default() },
    ))
}

/// One stream ready to play: its own service, cache cold.
struct Player {
    stream: Stream,
    service: Arc<SolveService>,
    dispatcher: Arc<TimedDispatcher>,
    planner: OnlineFloorplanner,
}

pub struct OnlineBench {
    pub size: Size,
    pub seed: u64,
    /// `simulate_with_dispatcher` totals by stream label.
    reference: BTreeMap<String, [u64; 9]>,
    players: Vec<Player>,
}

impl OnlineBench {
    pub fn new(size: Size, seed: u64) -> Self {
        OnlineBench { size, seed, reference: BTreeMap::new(), players: Vec::new() }
    }

    /// Plays every stream once through the library's own simulation loop,
    /// `simulate_with_dispatcher`, untimed: the totals each timed play must
    /// reproduce.
    pub fn reference(&mut self) -> Vec<String> {
        let mut failures = Vec::new();
        for stream in streams(self.size) {
            match simulate_with_dispatcher(&stream.scenario, &config(stream.policy), service(None))
            {
                Ok(report) => {
                    self.reference.insert(stream.label, totals(&report));
                }
                Err(e) => {
                    failures.push(format!("{}: reference simulation failed: {e}", stream.label))
                }
            }
        }
        failures
    }

    /// Drops the streams of the last set-up, stopping their services.
    pub fn discard(&mut self) {
        self.players.clear();
    }

    /// Builds one input set: generates the streams, decodes them from both
    /// interchange formats and builds one service per stream. Returns
    /// `(decode seconds, decoded bytes, failures)`.
    pub fn setup(&mut self, trace: Option<&TraceHandle>) -> (f64, u64, Vec<String>) {
        let mut failures = Vec::new();
        let mut decode_s = 0.0;
        let mut bytes = 0u64;
        let mut streams = streams(self.size);
        for stream in &mut streams {
            let json = write_scenario(&stream.scenario);
            let bin = write_scenario_bin(&stream.scenario);
            let start = Instant::now();
            let from_json = read_scenario(&json);
            let from_bin = read_scenario_bin(&bin);
            decode_s += start.elapsed().as_secs_f64();
            bytes += (json.len() + bin.len()) as u64;
            match (from_json, from_bin) {
                (Ok(a), Ok(b)) if a == stream.scenario && b == stream.scenario => {
                    stream.scenario = b
                }
                _ => failures.push(format!("{}: decode round trip differs", stream.label)),
            }
        }
        SplitMix64::new(self.seed).shuffle(&mut streams);
        self.players = streams
            .into_iter()
            .map(|stream| {
                let service = service(trace);
                let dispatcher = Arc::new(TimedDispatcher::new(service.clone()));
                let planner = OnlineFloorplanner::with_dispatcher(
                    stream.scenario.partition.clone(),
                    dispatcher.clone(),
                    config(stream.policy),
                );
                Player { stream, service, dispatcher, planner }
            })
            .collect();
        (decode_s, bytes, failures)
    }

    /// Plays every stream of the last set-up once, calling `between`
    /// between two streams with the batch clock stopped.
    pub fn batch(&mut self, between: &mut dyn FnMut()) -> Batch {
        let mut batch = Batch::default();
        let (mut hits, mut near, mut misses) = (0u64, 0u64, 0u64);
        let start = Instant::now();
        let mut paused = Duration::ZERO;
        let players = std::mem::take(&mut self.players);
        for (k, Player { stream, service, dispatcher, mut planner }) in
            players.into_iter().enumerate()
        {
            if k > 0 {
                let pause = Instant::now();
                between();
                paused += pause.elapsed();
            }
            let scenario = &stream.scenario;
            let mut events = Vec::with_capacity(scenario.events.len());
            let mut i = 0;
            while i < scenario.events.len() {
                let t = scenario.events[i].time;
                let mut j = i + 1;
                while j < scenario.events.len() && scenario.events[j].time == t {
                    j += 1;
                }
                let call = Instant::now();
                events.extend(planner.step_batch(scenario, i..j));
                batch.decisions_s.push(call.elapsed().as_secs_f64());
                i = j;
            }
            let report = SimReport {
                scenario: scenario.name.clone(),
                policy: stream.policy.id().to_string(),
                engine: config(stream.policy).engine,
                events,
                resynthesis_factor: config(stream.policy).resynthesis_factor,
                wall_seconds: 0.0,
            };
            batch.attempted += 1;
            batch.events += report.events.len() as u64;
            if report.violations() > 0 {
                batch.failures.push(format!(
                    "{}: {} violations",
                    stream.label,
                    report.violations()
                ));
            }
            let got = totals(&report);
            if self.reference.get(&stream.label) != Some(&got) {
                batch.failures.push(format!(
                    "{}: totals {got:?} differ from simulate_with_dispatcher {:?}",
                    stream.label,
                    self.reference.get(&stream.label)
                ));
            }
            batch.dispatch_s.extend(dispatcher.call_seconds());
            let (h, n, m) = service.cache_counters();
            hits += h;
            near += n;
            misses += m;
        }
        batch.wall_s = (start.elapsed() - paused).as_secs_f64();
        let lookups = (hits + near + misses).max(1) as f64;
        batch.layers.set("cache.hit_ratio", hits as f64 / lookups);
        batch
    }

    /// Candidate enumeration over every module of every stream, called
    /// directly and without the memo cache: `(seconds, candidates)`.
    pub fn enumerate_candidates(&self) -> (f64, u64) {
        let config = CandidateConfig::default();
        let mut secs = 0.0;
        let mut count = 0u64;
        for stream in streams(self.size) {
            for spec in &stream.scenario.modules {
                let start = Instant::now();
                let cands =
                    enumerate_candidates_uncached(&stream.scenario.partition, spec, &config);
                secs += start.elapsed().as_secs_f64();
                count += cands.len() as u64;
            }
        }
        (secs, count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_streams_have_the_documented_shape() {
        let full = streams(Size::Full);
        assert_eq!(full.len(), 3);
        assert!(full.iter().all(|s| s.scenario.modules.len() == 400));
        assert!(full[0].scenario.partition.columnar().is_some());
        assert_eq!(full[0].scenario, full[1].scenario);
        assert!(full[2].scenario.partition.columnar().is_none());
    }

    #[test]
    fn a_timed_play_reproduces_the_reference_totals() {
        let mut bench = OnlineBench::new(Size::Tiny, 3);
        assert_eq!(bench.reference(), Vec::<String>::new());
        for _ in 0..2 {
            bench.setup(None);
            let batch = bench.batch(&mut || {});
            assert_eq!(batch.failures, Vec::<String>::new());
            assert_eq!(batch.attempted, 3);
        }
        // A wrong reference is caught.
        bench.reference.values_mut().for_each(|t| t[4] += 1);
        bench.setup(None);
        assert_eq!(bench.batch(&mut || {}).failures.len(), 3);
    }
}
