//! The repository benchmark. One binary, three workloads:
//!
//! * `fc-design` — `combinatorial` proves the golden SDR, SDR2 and SDR3
//!   problems (free-compatible reservation cost per search node);
//! * `milp-design` — `milp` proves 3-region problems on a columnar device
//!   (portion model) and on a hetero fabric (assignment model), each
//!   objective checked against `combinatorial`'s proof;
//! * `online` — event streams played through `OnlineFloorplanner::step_batch`
//!   with escalations solved by a one-worker `SolveService`.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics, read from traced
//! batches that alternate with untraced ones. See `perfbench/README.md`.

mod design;
mod online;
mod probe;
mod stats;

use design::{Corpus, DesignBench};
use online::OnlineBench;
use rfp_trace::{Collector, TraceHandle};
use stats::{median, percentile, quartiles, result_line, Metric};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics, `(name, unit)`, in output order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("batch_s", "s"),
    ("events_per_s", "1/s"),
    ("decision_p50_us", "us"),
    ("decision_p99_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, `(name, unit)`, in output order. A workload that does
/// not reach a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("io.decode_s", "s"),
    ("io.decode_mb_per_s", "MB/s"),
    ("candidates.enumerate_s", "s"),
    ("candidates.count", "count"),
    ("model.build_s", "s"),
    ("model.rows", "count"),
    ("model.nonzeros", "count"),
    ("milp.presolve_s", "s"),
    ("milp.root_lp_s", "s"),
    ("milp.search_s", "s"),
    ("milp.lp_s", "s"),
    ("milp.lp_share", "ratio"),
    ("milp.lp_iterations", "count"),
    ("batch_s.portion_model", "s"),
    ("batch_s.assignment_model", "s"),
    ("milp.us_per_lp_iter.portion_model", "us"),
    ("milp.us_per_lp_iter.assignment_model", "us"),
    ("milp.nodes", "count"),
    ("milp.nodes_per_s", "1/s"),
    ("combinatorial.nodes_per_s.sdr", "1/s"),
    ("combinatorial.nodes_per_s.sdr2", "1/s"),
    ("combinatorial.nodes_per_s.sdr3", "1/s"),
    ("combinatorial.fc_node_cost_ratio", "ratio"),
    ("hetero_golden.fc_requested", "count"),
    ("hetero_golden.fc_found.milp", "count"),
    ("hetero_golden.fc_found.combinatorial", "count"),
    ("engine.dispatch_calls", "count"),
    ("engine.dispatch_p50_ms", "ms"),
    ("service.queue_wait_s", "s"),
    ("service.worker_busy_s", "s"),
    ("cache.hits", "count"),
    ("cache.near", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("runtime.place_s", "s"),
    ("runtime.defrag_s", "s"),
    ("runtime.resolve_s", "s"),
    ("runtime.escalations", "count"),
    ("runtime.moves", "count"),
    ("runtime.die_crossing_rejections", "count"),
    ("runtime.frames_relocated", "count"),
    ("runtime.frames_resynthesized", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("host.cpus", "count"),
    ("run.solver_threads", "count"),
    ("run.service_workers", "count"),
];

/// Wall-clock spans the program emits, read back per layer:
/// `(span name, metric)`.
const SPAN_METRICS: &[(&str, &str)] = &[
    ("engine.model_build", "model.build_s"),
    ("milp.presolve", "milp.presolve_s"),
    ("milp.root_lp", "milp.root_lp_s"),
    ("milp.search", "milp.search_s"),
    ("service.queue_wait", "service.queue_wait_s"),
    ("runtime.place", "runtime.place_s"),
    ("runtime.defrag", "runtime.defrag_s"),
    ("runtime.resolve", "runtime.resolve_s"),
];

/// Counters the program emits, read back per layer: `(counter, metric)`.
const COUNTER_METRICS: &[(&str, &str)] = &[
    ("service.cache.hits", "cache.hits"),
    ("service.cache.near_hits", "cache.near"),
    ("service.cache.misses", "cache.misses"),
    ("runtime.escalations", "runtime.escalations"),
    ("runtime.moves", "runtime.moves"),
    ("runtime.die_crossing_rejections", "runtime.die_crossing_rejections"),
    ("runtime.frames_relocated", "runtime.frames_relocated"),
    ("runtime.frames_resynthesized", "runtime.frames_resynthesized"),
];

/// `setup_s` samples taken at each sampling point: before and after the
/// run's batches, and between two proofs or streams of every batch.
const SETUP_REPEATS: usize = 3;

/// Batches a run plays: `seconds` divided by the workload's seconds per
/// batch, at least one. The count is fixed by the command line, never by how
/// fast the measured code runs, so two versions of the program are measured
/// with the same estimator.
fn batches_for(seconds: f64, seconds_per_batch: f64) -> usize {
    ((seconds / seconds_per_batch).floor() as usize).max(1)
}

/// Input size: the full benchmark, or a seconds-long smoke version for the
/// self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// Per-layer figures by metric name.
#[derive(Debug, Default, Clone)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|&(n, _)| n == name), "undeclared metric {name}");
        self.0.insert(name, value);
    }
}

/// What one batch measured and checked.
#[derive(Debug, Default)]
pub struct Batch {
    /// Wall time of the whole batch.
    pub wall_s: f64,
    /// Wall time of every decision: one `step_batch` call, or on the design
    /// workloads the whole batch of proofs.
    pub decisions_s: Vec<f64>,
    /// Events handled: problems proven, or stream events.
    pub events: u64,
    /// Gated operations, and the gates that failed.
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Wall time of every engine dispatch.
    pub dispatch_s: Vec<f64>,
    pub layers: Layers,
}

/// A workload: its set-up, batch and direct layer calls.
enum Bench {
    Design(DesignBench),
    Online(OnlineBench),
}

impl Bench {
    fn new(workload: &str, size: Size, seed: u64) -> Option<Bench> {
        Some(match workload {
            "fc-design" => Bench::Design(DesignBench::new(Corpus::FcReservation, size, seed)),
            "milp-design" => Bench::Design(DesignBench::new(Corpus::Milp, size, seed)),
            "online" => Bench::Online(OnlineBench::new(size, seed)),
            _ => return None,
        })
    }

    fn reference(&mut self) -> Vec<String> {
        match self {
            Bench::Design(b) => b.reference(),
            Bench::Online(b) => b.reference(),
        }
    }

    fn setup(&mut self, trace: Option<&TraceHandle>) -> (f64, u64, Vec<String>) {
        match self {
            Bench::Design(b) => b.setup(),
            Bench::Online(b) => b.setup(trace),
        }
    }

    fn discard(&mut self) {
        match self {
            Bench::Design(b) => b.discard(),
            Bench::Online(b) => b.discard(),
        }
    }

    fn batch(&mut self, between: &mut dyn FnMut()) -> Batch {
        match self {
            Bench::Design(b) => b.batch(between),
            Bench::Online(b) => b.batch(between),
        }
    }

    /// A fresh bench of the same workload, size and seed.
    fn twin(&self) -> Bench {
        match self {
            Bench::Design(b) => Bench::Design(DesignBench::new(b.kind, b.size, b.seed)),
            Bench::Online(b) => Bench::Online(OnlineBench::new(b.size, b.seed)),
        }
    }

    fn enumerate_candidates(&self) -> (f64, u64) {
        match self {
            Bench::Design(b) => b.enumerate_candidates(),
            Bench::Online(b) => b.enumerate_candidates(),
        }
    }

    /// Run seconds allotted to one batch: a constant per workload, chosen
    /// from its batch time on the host the baseline was measured on (see
    /// `README.md`). It fixes how many batches a run plays.
    fn seconds_per_batch(&self) -> f64 {
        match self {
            Bench::Design(b) if b.kind == Corpus::FcReservation => 30.0,
            Bench::Design(_) => 2.75,
            Bench::Online(_) => 3.0,
        }
    }

    /// Set-ups timed in a block for one `setup_s` sample: enough for a
    /// sample of tens of milliseconds, so that one set-up of a fraction of a
    /// millisecond does not make the figure.
    fn setups_per_sample(&self) -> usize {
        match self {
            Bench::Design(_) => 250,
            Bench::Online(_) => 1,
        }
    }

    fn service_workers(&self) -> usize {
        match self {
            Bench::Design(_) => 0,
            Bench::Online(_) => 1,
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid {flag} `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The outcome of one run: what the result line reports.
struct RunResult {
    attempted: u64,
    failures: Vec<String>,
    metrics: Vec<Metric>,
    /// Extra facts for the context line, as JSON members.
    context: Vec<(String, String)>,
}

/// The figures of one batch, each from its own decisions.
struct BatchFigures {
    wall_s: f64,
    p50_s: f64,
    p99_s: f64,
    beyond_p99: usize,
}

impl BatchFigures {
    fn of(batch: &Batch) -> Self {
        let p99_s = percentile(&batch.decisions_s, 99.0);
        BatchFigures {
            wall_s: batch.wall_s,
            p50_s: percentile(&batch.decisions_s, 50.0),
            p99_s,
            beyond_p99: batch.decisions_s.iter().filter(|&&d| d > p99_s).count(),
        }
    }
}

/// Times set-ups of its own bench, apart from the one whose batches run.
struct SetupSampler {
    bench: Bench,
    per_sample: usize,
    /// Seconds per set-up of every sample.
    samples: Vec<f64>,
    attempted: u64,
    failures: Vec<String>,
}

impl SetupSampler {
    /// Takes [`SETUP_REPEATS`] samples, each a block of set-ups.
    fn sample(&mut self) {
        for _ in 0..SETUP_REPEATS {
            let mut secs = 0.0;
            for _ in 0..self.per_sample {
                // Tearing down the previous set-up's services is not set-up work.
                self.bench.discard();
                let start = Instant::now();
                let (_, _, fail) = self.bench.setup(None);
                secs += start.elapsed().as_secs_f64();
                self.attempted += 1;
                self.failures.extend(fail);
            }
            self.samples.push(secs / self.per_sample as f64);
        }
        self.bench.discard();
    }
}

/// Plays the run's fixed number of batches ([`batches_for`]) and reports the
/// end-to-end metrics. Each batch gets a fresh, untimed set-up. `setup_s`
/// samples come from a second bench of the same workload and are taken
/// before the first batch, between two proofs or streams of every batch
/// (with the batch clock stopped) and after the last batch, so they span the
/// whole run. Like every other figure, `setup_s` is the best sample: set-up
/// is mostly decoding, which the shared host slows down by up to 2x from one
/// moment to the next: in one ten-run set the median of the samples spread
/// 11-32%, while the best spread 4-9% in others.
fn run_untraced(bench: &mut Bench, seconds: f64) -> RunResult {
    let mut failures = bench.reference();
    let mut attempted = failures.len() as u64;
    let mut sampler = SetupSampler {
        bench: bench.twin(),
        per_sample: bench.setups_per_sample(),
        samples: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
    };
    sampler.sample();
    let n_batches = batches_for(seconds, bench.seconds_per_batch());
    let mut figures = Vec::with_capacity(n_batches);
    let mut events = 0;
    let mut decisions = 0;
    for _ in 0..n_batches {
        bench.discard();
        let (_, _, fail) = bench.setup(None);
        attempted += 1;
        failures.extend(fail);
        let batch = bench.batch(&mut || sampler.sample());
        attempted += batch.attempted;
        failures.extend(batch.failures.iter().cloned());
        events = batch.events;
        decisions = batch.decisions_s.len();
        figures.push(BatchFigures::of(&batch));
    }
    sampler.sample();
    attempted += sampler.attempted;
    failures.extend(sampler.failures);
    let setups = sampler.samples;
    // Every batch replays the same inputs in the same order. Each figure is
    // the best over the run's batches, and each batch's figure comes from its
    // own decisions: a stretch in which a shared host runs the code slowly
    // spoils one batch, not the run's figure.
    let best = |f: fn(&BatchFigures) -> f64| figures.iter().map(f).fold(f64::INFINITY, f64::min);
    let best_wall = best(|b| b.wall_s);
    let best_setup = setups.iter().copied().fold(f64::INFINITY, f64::min);
    let beyond = figures.iter().map(|b| b.beyond_p99).min().unwrap_or(0);
    let metrics = vec![
        Metric { name: "setup_s", value: best_setup, unit: "s" },
        Metric { name: "batch_s", value: best_wall, unit: "s" },
        Metric { name: "events_per_s", value: events as f64 / best_wall, unit: "1/s" },
        Metric { name: "decision_p50_us", value: best(|b| b.p50_s) * 1e6, unit: "us" },
        Metric { name: "decision_p99_us", value: best(|b| b.p99_s) * 1e6, unit: "us" },
        Metric { name: "peak_rss_mb", value: probe::peak_rss_mb(), unit: "MB" },
    ];
    let walls: Vec<String> = figures.iter().map(|b| stats::json_num(b.wall_s)).collect();
    let (setup_q1, setup_q3) = quartiles(&setups);
    let context = vec![
        ("batches".into(), n_batches.to_string()),
        ("batch_walls_s".into(), format!("[{}]", walls.join(", "))),
        ("setup_samples".into(), setups.len().to_string()),
        ("setups_per_sample".into(), sampler.per_sample.to_string()),
        ("setup_q1_s".into(), stats::json_num(setup_q1)),
        ("setup_q3_s".into(), stats::json_num(setup_q3)),
        ("decisions_per_batch".into(), decisions.to_string()),
        ("decisions_beyond_p99".into(), beyond.to_string()),
    ];
    RunResult { attempted, failures, metrics, context }
}

/// Plays a fixed number of pairs of one untraced and one traced batch (half
/// as many pairs as [`run_untraced`] plays batches, at least one) and reports
/// the per-layer metrics of the fastest traced batch.
fn run_traced(bench: &mut Bench, seconds: f64) -> RunResult {
    let mut failures = bench.reference();
    let mut attempted = failures.len() as u64;
    let mut decode = Vec::new();
    let mut decoded_bytes = 0u64;
    for _ in 0..SETUP_REPEATS {
        let (secs, bytes, fail) = bench.setup(None);
        decode.push(secs);
        decoded_bytes = bytes;
        attempted += 1;
        failures.extend(fail);
    }
    let mut untraced_s = f64::INFINITY;
    let mut best: Option<(Batch, Collector)> = None;
    for _ in 0..batches_for(seconds, 2.0 * bench.seconds_per_batch()) {
        failures.extend(bench.setup(None).2);
        let untraced = bench.batch(&mut || {});
        let collector = Collector::with_wall_clock();
        let handle = collector.handle();
        failures.extend(bench.setup(Some(&handle)).2);
        let traced = {
            let _scope = handle.install("main");
            bench.batch(&mut || {})
        };
        attempted += 2;
        for batch in [&untraced, &traced] {
            attempted += batch.attempted;
            failures.extend(batch.failures.iter().cloned());
        }
        untraced_s = untraced_s.min(untraced.wall_s);
        if best.as_ref().is_none_or(|(b, _)| traced.wall_s < b.wall_s) {
            best = Some((traced, collector));
        }
    }
    let (traced, collector) = best.expect("at least one traced batch ran");

    let mut layers = traced.layers.clone();
    let walls: BTreeMap<String, f64> = collector.wall_timings().into_iter().collect();
    for &(span, metric) in SPAN_METRICS {
        layers.set(metric, walls.get(span).copied().unwrap_or(0.0));
    }
    let busy: f64 = walls
        .iter()
        .filter(|(name, _)| name.starts_with("service.worker") && name.ends_with(".busy"))
        .map(|(_, secs)| secs)
        .sum();
    layers.set("service.worker_busy_s", busy);
    let counters = collector.counter_snapshot();
    for &(counter, metric) in COUNTER_METRICS {
        layers.set(metric, counters.get(counter).copied().unwrap_or(0) as f64);
    }
    let decode_s = median(&decode);
    layers.set("io.decode_s", decode_s);
    layers.set("io.decode_mb_per_s", decoded_bytes as f64 / decode_s / 1e6);
    let (enum_s, count) = bench.enumerate_candidates();
    layers.set("candidates.enumerate_s", enum_s);
    layers.set("candidates.count", count as f64);
    layers.set("engine.dispatch_calls", traced.dispatch_s.len() as f64);
    layers.set("engine.dispatch_p50_ms", percentile(&traced.dispatch_s, 50.0) * 1e3);
    layers.set("trace.overhead_ratio", traced.wall_s / untraced_s);
    layers.set("host.cpus", probe::host_cpus() as f64);
    layers.set("run.solver_threads", 1.0);
    layers.set("run.service_workers", bench.service_workers() as f64);

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: layers.0.get(name).copied().unwrap_or(0.0),
            unit,
        })
        .collect();
    let context = vec![
        ("best_untraced_batch_s".into(), stats::json_num(untraced_s)),
        ("best_traced_batch_s".into(), stats::json_num(traced.wall_s)),
    ];
    RunResult { attempted, failures, metrics, context }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let Some(mut bench) = Bench::new(&args.workload, Size::Full, args.seed) else {
        eprintln!(
            "perfbench: unknown workload `{}` (fc-design, milp-design, online)",
            args.workload
        );
        return ExitCode::from(2);
    };
    let wall = Instant::now();
    let run = if args.trace {
        run_traced(&mut bench, args.seconds)
    } else {
        run_untraced(&mut bench, args.seconds)
    };
    for failure in &run.failures {
        eprintln!("perfbench: FAILED {failure}");
    }
    let (commit, digest) = probe::code_identity();
    let mut context = vec![
        ("workload".to_string(), format!("\"{}\"", args.workload)),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), stats::json_num(args.seconds)),
        ("trace".into(), u8::from(args.trace).to_string()),
        ("host_cpus".into(), probe::host_cpus().to_string()),
        ("profile".into(), format!("\"{}\"", probe::build_profile())),
        ("commit".into(), format!("\"{commit}\"")),
        ("source_fnv64".into(), format!("\"{digest}\"")),
        ("solver_threads".into(), "1".into()),
        ("service_workers".into(), bench.service_workers().to_string()),
        ("run_wall_s".into(), stats::json_num(wall.elapsed().as_secs_f64())),
    ];
    context.extend(run.context);
    let members: Vec<String> = context.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    println!("{{\"context\": {{{}}}}}", members.join(", "));
    println!("{}", result_line(run.attempted, run.failures.len() as u64, &run.metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfp_floorplan::jsonio::{parse, JsonValue};

    fn declared(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
        doc.field(key)
            .and_then(JsonValue::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| m.field(k).and_then(JsonValue::as_str).expect("string").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_metrics_the_program_prints() {
        let doc = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let owned = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), owned(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), owned(PER_LAYER));
        let workloads: Vec<String> = doc
            .field("workloads")
            .and_then(JsonValue::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.field("name").and_then(JsonValue::as_str).expect("name").to_string())
            .collect();
        for w in &workloads {
            assert!(Bench::new(w, Size::Tiny, 0).is_some(), "{w}");
        }
        assert_eq!(workloads.len(), 3);
    }

    #[test]
    fn metric_names_and_units_are_valid_and_unique() {
        let all: Vec<&(&str, &str)> = END_TO_END.iter().chain(PER_LAYER).collect();
        for &&(name, unit) in &all {
            assert!(stats::valid_name(name), "{name}");
            assert!(stats::valid_unit(unit), "{unit}");
        }
        let mut names: Vec<&str> = all.iter().map(|m| m.0).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len());
        for &(span, metric) in SPAN_METRICS.iter().chain(COUNTER_METRICS) {
            assert!(PER_LAYER.iter().any(|&(n, _)| n == metric), "{span} -> {metric}");
        }
    }

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload online --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(a, Args { workload: "online".into(), seed: 7, seconds: 12.0, trace: true });
        assert!(parse_args(&argv("--workload online --trace 2")).is_err());
        assert!(parse_args(&argv("--workload online --seconds -1")).is_err());
        assert!(parse_args(&argv("--workload")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload x --bogus 1")).is_err());
    }

    /// A tiny run of each workload in both modes: every gate passes and
    /// every declared metric is printed.
    #[test]
    fn every_workload_runs_small_in_both_modes() {
        for workload in ["fc-design", "milp-design", "online"] {
            let mut bench = Bench::new(workload, Size::Tiny, 1).unwrap();
            let run = run_untraced(&mut bench, 0.001);
            assert_eq!(run.failures, Vec::<String>::new(), "{workload}");
            let names: Vec<&str> = run.metrics.iter().map(|m| m.name).collect();
            assert_eq!(names, END_TO_END.iter().map(|m| m.0).collect::<Vec<_>>());
            assert!(run.metrics.iter().all(|m| m.value > 0.0), "{workload}: {:?}", run.metrics);

            let mut bench = Bench::new(workload, Size::Tiny, 1).unwrap();
            let run = run_traced(&mut bench, 0.001);
            assert_eq!(run.failures, Vec::<String>::new(), "{workload}");
            assert_eq!(run.metrics.len(), PER_LAYER.len());
            let value = |name: &str| run.metrics.iter().find(|m| m.name == name).unwrap().value;
            assert!(value("trace.overhead_ratio") > 0.0);
            assert!(value("engine.dispatch_calls") > 0.0);
            match workload {
                "milp-design" => {
                    assert!(value("milp.search_s") > 0.0 && value("model.rows") > 0.0);
                    assert!(value("batch_s.portion_model") > 0.0);
                    assert!(value("batch_s.assignment_model") > 0.0);
                }
                "online" => assert!(value("runtime.place_s") > 0.0),
                _ => assert!(value("combinatorial.nodes_per_s.sdr") > 0.0),
            }
        }
    }
}
