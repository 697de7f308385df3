//! Solve-service throughput under a repeat-heavy job stream, cache on vs
//! cache off.
//!
//! Builds a deterministic stream of small floorplanning jobs that cycles
//! over a handful of distinct problems — the shape an online client
//! produces when modules arrive, leave and re-arrive — and pushes it
//! through [`SolveService`] twice: once with the cross-request outcome
//! cache enabled (repeat jobs are answered from the cache, no engine runs)
//! and once with it disabled (every job solves cold). Each mode is timed
//! over several samples with the vendored criterion's statistics
//! ([`criterion::summarize`]) and the comparison lands in a BENCH JSON.
//!
//! Usage: `serve_load [--rounds N] [--samples N] [--workers N] [--json PATH]`
//!
//! The JSON (default `BENCH_serve.json`, schema `rfp-bench/serve_load/v1`)
//! is the PR-over-PR artefact: `speedup` is mean cache-off time over mean
//! cache-on time for the identical stream.

use criterion::{summarize, SampleStats};
use rfp_bench::json;
use rfp_device::{columnar_partition, DeviceBuilder, ResourceVec};
use rfp_floorplan::engine::SolveRequest;
use rfp_floorplan::problem::{FloorplanProblem, ObjectiveWeights, RegionSpec};
use rfp_service::{JobSpec, ServiceConfig, SolveService};
use std::time::{Duration, Instant};

/// Distinct problems the stream cycles over.
const DISTINCT: usize = 3;

/// One mid-size problem per variant: same 14x4 device, different region
/// loads, the four regions connected in a chain. Big enough that a cold
/// combinatorial solve costs real work (the placement enumeration over four
/// regions, with wire length as the tie-breaker among equal-waste
/// floorplans), small enough that the stream finishes in seconds. Without
/// the connections every floorplan has wire length 0 and the engine proves
/// the optimum in microseconds, leaving the cache nothing to save.
fn problem(variant: usize) -> FloorplanProblem {
    let mut b = DeviceBuilder::new("serve-load");
    let clb = b.tile_type("CLB", ResourceVec::new(1, 0, 0), 36);
    let bram = b.tile_type("BRAM", ResourceVec::new(0, 1, 0), 30);
    b.rows(4).columns(&[clb, clb, bram, clb, clb, clb, bram, clb, clb, clb, bram, clb, clb, clb]);
    let mut p = FloorplanProblem::new(columnar_partition(&b.build().unwrap()).unwrap());
    p.weights = ObjectiveWeights::area_only();
    let a = p.add_region(RegionSpec::new("A", vec![(clb, 4), (bram, 1)]));
    let b = p.add_region(RegionSpec::new("B", vec![(clb, 2 + (variant as u32 % 3))]));
    let c = p.add_region(RegionSpec::new("C", vec![(clb, 3), (bram, 1)]));
    let d = p.add_region(RegionSpec::new("D", vec![(clb, 2)]));
    p.connect_chain(&[a, b, c, d], 1.0);
    p
}

/// Runs `rounds` full cycles over the distinct problems through a fresh
/// service and returns (elapsed, exact hits, misses).
fn run_stream(rounds: usize, workers: usize, cache: bool) -> (Duration, u64, u64) {
    let registry = rfp_baselines::engines::full_registry();
    let service =
        SolveService::new(registry, ServiceConfig { workers, cache, ..ServiceConfig::default() });
    let start = Instant::now();
    let mut ids = Vec::with_capacity(rounds * DISTINCT);
    for _round in 0..rounds {
        for variant in 0..DISTINCT {
            ids.push(service.submit(JobSpec::new(SolveRequest::new(problem(variant)))));
        }
    }
    for id in ids {
        service.join(id).expect("submitted ids are joinable");
    }
    let elapsed = start.elapsed();
    let (hits, _near, misses) = service.cache_counters();
    (elapsed, hits, misses)
}

struct Mode {
    stats: SampleStats,
    jobs_per_second: f64,
    hits: u64,
    misses: u64,
}

fn measure(samples: usize, rounds: usize, workers: usize, cache: bool) -> Mode {
    let jobs = rounds * DISTINCT;
    let mut times = Vec::with_capacity(samples);
    let (mut hits, mut misses) = (0, 0);
    for _ in 0..samples {
        let (elapsed, h, m) = run_stream(rounds, workers, cache);
        times.push(elapsed);
        (hits, misses) = (h, m);
    }
    let stats = summarize(&times);
    let mean = stats.mean.as_secs_f64();
    Mode { stats, jobs_per_second: if mean > 0.0 { jobs as f64 / mean } else { 0.0 }, hits, misses }
}

fn mode_json(mode: &Mode) -> String {
    json::Object::new()
        .num("mean_seconds", mode.stats.mean.as_secs_f64())
        .num("p50_seconds", mode.stats.p50.as_secs_f64())
        .num("p95_seconds", mode.stats.p95.as_secs_f64())
        .num("jobs_per_second", mode.jobs_per_second)
        .int("cache_hits", mode.hits)
        .int("cache_misses", mode.misses)
        .build()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str, default: usize| -> usize {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let rounds = get("--rounds", 8);
    let samples = get("--samples", 5);
    let workers = get("--workers", 2);
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_serve.json".to_string());
    let jobs = rounds * DISTINCT;

    println!("# Solve-service throughput: repeat-heavy stream, cache on vs off\n");
    println!(
        "{jobs} jobs per stream ({DISTINCT} distinct problems x {rounds} rounds), \
         {workers} worker(s), {samples} sample(s) per mode\n"
    );

    let on = measure(samples, rounds, workers, true);
    let off = measure(samples, rounds, workers, false);
    let speedup = off.stats.mean.as_secs_f64() / on.stats.mean.as_secs_f64().max(1e-9);

    println!("| mode      | mean      | p50       | p95       | jobs/s  | hits | misses |");
    println!("|-----------|-----------|-----------|-----------|---------|------|--------|");
    for (name, mode) in [("cache-on", &on), ("cache-off", &off)] {
        println!(
            "| {name:<9} | {:>9.3?} | {:>9.3?} | {:>9.3?} | {:>7.1} | {:>4} | {:>6} |",
            mode.stats.mean,
            mode.stats.p50,
            mode.stats.p95,
            mode.jobs_per_second,
            mode.hits,
            mode.misses,
        );
    }
    println!("\nspeedup (cache-off mean / cache-on mean): {speedup:.2}x");

    let doc = json::Object::new()
        .str("schema", "rfp-bench/serve_load/v1")
        .int("jobs", jobs as u64)
        .int("distinct_problems", DISTINCT as u64)
        .int("rounds", rounds as u64)
        .int("workers", workers as u64)
        .int("samples", samples as u64)
        .raw("cache_on", mode_json(&on))
        .raw("cache_off", mode_json(&off))
        .num("speedup", speedup)
        .build();
    if let Err(e) = std::fs::write(&json_path, doc + "\n") {
        eprintln!("serve_load: cannot write `{json_path}`: {e}");
        std::process::exit(1);
    }
    eprintln!("serve_load: BENCH JSON written to {json_path}");
}
