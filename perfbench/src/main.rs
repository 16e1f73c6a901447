//! The repository benchmark: round latency, throughput and cost of LIFL
//! aggregation on three workloads, plus a traced per-layer run.
//!
//! ```text
//! lifl-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures with tracing off and prints the end-to-end metrics;
//! `--trace 1` measures half the time untraced and half traced, prints the
//! per-layer metrics and writes the span dump with its per-layer summary to
//! `.bench_out/`. Either way the last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Wrong output
//! makes `correct` false and the exit code 1.

mod floors;
mod harness;
mod inputs;
mod probe;
mod stats;
mod workloads;

use harness::{EngineStats, Recorder, ROUND};
use stats::{median, quantile};
use std::io::Write as _;
use std::time::{Duration, Instant};
use workloads::cluster_streaming::ClusterStreaming;
use workloads::cluster_uniform8::ClusterUniform8;
use workloads::session_dense::SessionDense;
use workloads::Workload;

#[global_allocator]
static ALLOCATOR: probe::HighWaterAllocator = probe::HighWaterAllocator;

/// Workload names, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = [
    "session-dense-resnet18",
    "cluster-uniform8-2m",
    "cluster-streaming-64k",
];

/// Independent set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Named metrics in report order.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        // JSON has no NaN or infinity; a ratio over nothing reads 0.
        self.0
            .push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A failed run: the offers attempted, the calls that failed, and why.
type Failure = (u64, u64, String);

/// One measured phase: rounds until `seconds` of wall time have passed.
struct Phase {
    rec: Recorder,
    peak_heap_bytes: u64,
    before: EngineStats,
    after: EngineStats,
}

fn measure<W: Workload>(workload: &mut W, seconds: f64, tracing: bool) -> Result<Phase, Failure> {
    let mut rec = Recorder::new(tracing);
    let before = workload.engine_stats();
    probe::reset_peak();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline || rec.round_ms.is_empty() {
        if let Err(e) = workload.round(&mut rec) {
            return Err((rec.offered, rec.failed, e));
        }
    }
    let peak_heap_bytes = probe::peak_bytes();
    Ok(Phase {
        after: workload.engine_stats(),
        rec,
        peak_heap_bytes,
        before,
    })
}

fn end_to_end(phase: &Phase, setup_s: &[f64]) -> Metrics {
    let rec = &phase.rec;
    let mut m = Metrics::default();
    m.add("round_ms.p50", quantile(&rec.round_ms, 0.5).value, "ms");
    m.add("round_ms.p90", quantile(&rec.round_ms, 0.9).value, "ms");
    m.add("close_ms.p50", quantile(&rec.close_ms, 0.5).value, "ms");
    m.add("close_ms.p90", quantile(&rec.close_ms, 0.9).value, "ms");
    m.add("offer_us.p50", quantile(&rec.offer_us, 0.5).value, "us");
    m.add("offer_us.p90", quantile(&rec.offer_us, 0.9).value, "us");
    m.add("updates_per_s", rec.updates as f64 / rec.timed_s(), "1/s");
    m.add(
        "accept_share",
        1.0 - rec.rejected as f64 / rec.offered as f64,
        "ratio",
    );
    m.add(
        "cpu_ms_per_update",
        rec.cpu_s * 1e3 / rec.updates as f64,
        "ms",
    );
    m.add("peak_heap_mb", phase.peak_heap_bytes as f64 / 1e6, "MB");
    m.add("setup_s", median(setup_s), "s");
    m
}

fn per_layer(traced: &Phase, untraced: &Phase, floors: &floors::Floors, lossy: bool) -> Metrics {
    let rec = &traced.rec;
    let l = &rec.layers;
    let rounds = rec.round_ms.len().max(1) as f64;
    let updates = rec.updates.max(1) as f64;
    let (before, after) = (&traced.before, &traced.after);
    let mut m = Metrics::default();

    m.add("front.offer_admitted_us", median(&rec.admitted_us), "us");
    m.add("front.offer_queued_us", median(&rec.queued_us), "us");
    m.add("front.offer_rejected_us", median(&rec.rejected_us), "us");
    m.add("front.depart_us", median(&rec.depart_us), "us");
    let drive_ms = median(&rec.drive_ms);
    m.add("front.drive_ms", drive_ms, "ms");

    m.add("shmem.puts", l.puts as f64 / rounds, "count");
    m.add("shmem.encoded_bytes", l.encoded_bytes as f64 / rounds, "B");
    m.add(
        "shmem.dense_equiv_bytes",
        l.dense_equiv_bytes as f64 / rounds,
        "B",
    );
    m.add("shmem.live_objects_end", l.live_objects_end as f64, "count");
    let hits = after.pool.hits.saturating_sub(before.pool.hits) as f64;
    let misses = after.pool.misses.saturating_sub(before.pool.misses) as f64;
    m.add("shmem.pool_hit_rate", hits / (hits + misses), "ratio");
    m.add("floor.memcpy_us", floors.memcpy_us, "us");
    m.add("floor.put_f32_us", floors.put_f32_us, "us");
    m.add(
        "shmem.offer_over_memcpy",
        median(&rec.admitted_us) / floors.memcpy_us,
        "ratio",
    );

    m.add("floor.encode_us", floors.encode_us, "us");
    m.add("floor.fused_fold_us", floors.fused_fold_us, "us");
    m.add("floor.dense_fold_us", floors.dense_fold_us, "us");
    m.add("floor.decode_us", floors.decode_us, "us");
    m.add(
        "codec.wire_bytes_per_update",
        l.ingress_wire_bytes as f64 / updates,
        "B",
    );
    m.add(
        "codec.bytes_saved_share",
        1.0 - l.encoded_bytes as f64 / l.dense_equiv_bytes as f64,
        "ratio",
    );
    let fold_floor_us = if lossy {
        floors.fused_fold_us
    } else {
        floors.dense_fold_us
    };
    m.add(
        "aggregator.drive_over_fold_floor",
        drive_ms * 1e3 / (updates / rounds * fold_floor_us),
        "ratio",
    );

    m.add("cluster.hops_per_round", l.hops as f64 / rounds, "count");
    m.add(
        "cluster.inter_node_bytes_per_round",
        l.inter_node_bytes as f64 / rounds,
        "B",
    );
    m.add(
        "cluster.same_node_share",
        l.same_node_hops as f64 / l.hops as f64,
        "ratio",
    );
    m.add("cluster.priced_hop_ms", l.priced_hop_ms / rounds, "ms");
    m.add("cluster.top_moves", l.top_moves as f64, "count");
    m.add("cluster.overhead_ms", median(&l.overhead_ms), "ms");

    let (a, b) = (&after.admission, &before.admission);
    m.add("admission.queued", (a.queued - b.queued) as f64, "count");
    m.add(
        "admission.rejected",
        (a.rejected - b.rejected) as f64,
        "count",
    );
    m.add("admission.drained", (a.drained - b.drained) as f64, "count");
    m.add("admission.dropped", (a.dropped - b.dropped) as f64, "count");
    m.add("admission.peak_queued", a.peak_queued as f64, "count");
    m.add("admission.peak_bytes", a.peak_bytes as f64, "B");
    m.add(
        "admission.useful_share",
        rec.updates as f64 / rec.offered as f64,
        "ratio",
    );

    m.add("fleet.resizes", l.resizes as f64, "count");
    m.add("fleet.leaves_mean", l.leaves_per_node_sum / rounds, "count");
    m.add(
        "fleet.drive_resize_ms.p50",
        median(&l.drive_resize_ms),
        "ms",
    );
    m.add(
        "fleet.drive_steady_ms.p50",
        median(&l.drive_steady_ms),
        "ms",
    );

    m.add(
        "trace.overhead_share",
        median(&rec.round_ms) / median(&untraced.rec.round_ms) - 1.0,
        "ratio",
    );
    m.add(
        "bench.unattributed_share",
        stats::unattributed_share(&rec.spans, ROUND),
        "ratio",
    );
    m
}

/// Sample counts and the percentiles actually reported, for the log.
fn describe_samples(rec: &Recorder) -> String {
    let line = |name: &str, samples: &[f64]| {
        let p50 = quantile(samples, 0.5);
        let p90 = quantile(samples, 0.9);
        format!(
            "  {name:<10} n={:<6} p50 -> p{:.1}, p90 -> p{:.1}\n",
            p50.samples,
            p50.percentile * 100.0,
            p90.percentile * 100.0
        )
    };
    line("round_ms", &rec.round_ms)
        + &line("close_ms", &rec.close_ms)
        + &line("offer_us", &rec.offer_us)
}

fn write_trace(args: &Args, rec: &Recorder) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        stats::write_trace_json(&mut out, &rec.spans, ROUND)?;
        out.flush()
    });
    match written {
        Ok(()) => eprintln!("span dump and per-layer summary: {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    eprintln!("per-layer self time in the traced phase (share of round wall time):");
    let rows = stats::layer_rows(&rec.spans);
    let shares = stats::round_shares(&rows, ROUND);
    for (row, share) in rows.iter().zip(shares) {
        eprintln!(
            "  {:<22} count {:>7}  total {:>10.3} ms  self {:>10.3} ms  {}",
            row.name,
            row.count,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6,
            share.map_or("(between rounds)".to_string(), |s| format!(
                "{:5.1}%",
                s * 100.0
            ))
        );
    }
}

struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

fn run<W: Workload>(args: &Args) -> Result<Outcome, Failure> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut engine = None;
    for _ in 0..SETUPS {
        // Tear the previous instance down first, so set-ups do not overlap
        // in memory.
        drop(engine.take());
        let mut warm = Recorder::new(false);
        let (workload, build_s) = W::setup(args.seed, args.trace, &mut warm)
            .map_err(|e| (warm.offered, warm.failed, e))?;
        setup_s.push(build_s + warm.timed_s());
        engine = Some(workload);
    }
    let mut workload = engine.ok_or((0, 0, "no set-up ran".to_string()))?;

    let outcome = if args.trace {
        let untraced = measure(&mut workload, args.seconds / 2.0, false)?;
        let traced = measure(&mut workload, args.seconds / 2.0, true)?;
        let (params, samples) = workload.sample_update();
        let floors = floors::measure(&params, samples);
        write_trace(args, &traced.rec);
        eprintln!("traced phase samples:\n{}", describe_samples(&traced.rec));
        let rec = &traced.rec;
        Outcome {
            attempted: untraced.rec.offered + rec.offered,
            failed: untraced.rec.failed + rec.failed,
            metrics: per_layer(&traced, &untraced, &floors, workload.lossy()),
        }
    } else {
        let phase = measure(&mut workload, args.seconds, false)?;
        eprintln!("samples:\n{}", describe_samples(&phase.rec));
        Outcome {
            attempted: phase.rec.offered,
            failed: phase.rec.failed,
            metrics: end_to_end(&phase, &setup_s),
        }
    };
    workload
        .finish()
        .map_err(|e| (outcome.attempted, outcome.failed, e))?;
    Ok(outcome)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: lifl-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "session-dense-resnet18" => run::<SessionDense>(&args),
        "cluster-uniform8-2m" => run::<ClusterUniform8>(&args),
        _ => run::<ClusterStreaming>(&args),
    };
    let (correct, outcome) = match result {
        Ok(outcome) => (outcome.failed == 0, outcome),
        Err((attempted, failed, e)) => {
            eprintln!("CHECK FAILED: {e}");
            let metrics = Metrics::default();
            (
                false,
                Outcome {
                    attempted,
                    failed,
                    metrics,
                },
            )
        }
    };
    for (name, value, unit) in &outcome.metrics.0 {
        eprintln!("{name:<36} {value:>16.6} {unit}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        outcome.metrics.json()
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn spec() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn names(spec: &Value, key: &str) -> Vec<String> {
        let Some(Value::Array(entries)) = spec.field(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        entries
            .iter()
            .map(|e| {
                e.field("name")
                    .and_then(Value::as_str)
                    .expect("named")
                    .to_string()
            })
            .collect()
    }

    fn emitted(metrics: &Metrics) -> Vec<String> {
        metrics
            .0
            .iter()
            .map(|(name, _, _)| name.to_string())
            .collect()
    }

    fn phase() -> Phase {
        Phase {
            rec: Recorder::new(true),
            peak_heap_bytes: 0,
            before: EngineStats::default(),
            after: EngineStats::default(),
        }
    }

    #[test]
    fn benchmark_json_names_what_the_program_reports() {
        let spec = spec();
        let (e2e, layers) = (names(&spec, "end_to_end"), names(&spec, "per_layer"));
        assert!((1..=16).contains(&e2e.len()) && (1..=128).contains(&layers.len()));
        let mut all: Vec<&String> = e2e.iter().chain(&layers).collect();
        for name in &all {
            assert!(
                name.len() <= 64
                    && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad metric name {name:?}"
            );
        }
        all.sort();
        all.dedup();
        assert_eq!(all.len(), e2e.len() + layers.len(), "metric names repeat");

        assert_eq!(e2e, emitted(&end_to_end(&phase(), &[1.0])));
        assert_eq!(
            layers,
            emitted(&per_layer(
                &phase(),
                &phase(),
                &floors::Floors::default(),
                false
            ))
        );
        assert_eq!(names(&spec, "workloads"), WORKLOADS);
    }

    #[test]
    fn metrics_print_as_json_with_units() {
        let mut m = Metrics::default();
        m.add("a.b", 1.5, "ms");
        m.add("c", f64::NAN, "ratio");
        let json: Value = serde_json::from_str(&m.json()).unwrap();
        let a = json.field("a.b").unwrap();
        assert_eq!(a.field("value").and_then(Value::as_f64), Some(1.5));
        assert_eq!(a.field("unit").and_then(Value::as_str), Some("ms"));
        assert_eq!(
            json.field("c")
                .unwrap()
                .field("value")
                .and_then(Value::as_f64),
            Some(0.0)
        );
    }
}
