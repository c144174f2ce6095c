//! `tenways-perfbench`: one command that measures the tenways simulator
//! and its serving stack end to end, and layer by layer in a traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim-mix|serve-sweep --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones.
//! A failed correctness gate makes the command exit 1. See README.md.

mod gen;
mod measure;
mod node;
mod serve_sweep;
mod sim_mix;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use measure::Metrics;
use trace::SpanLog;

/// End-to-end metrics every workload reports, with their units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_ops_s", "1/s"),
    ("capacity_ops_s", "1/s"),
    ("success_ratio", "ratio"),
    ("sim_cycles_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run, with their units. Every workload
/// prints every one; a layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("sim.config_parse_us", "us"),
    ("sim.cache_key_us", "us"),
    ("sim.json_parse_ms", "ms"),
    ("sim.json_bytes", "count"),
    ("sim.json_serialize_us", "us"),
    ("waste.run_ms.contended", "ms"),
    ("waste.run_ms.farmem", "ms"),
    ("waste.run_ms.spec", "ms"),
    ("waste.run_ms.mesh", "ms"),
    ("waste.run_ms.small", "ms"),
    ("waste.host_ns_per_cycle.contended", "ns"),
    ("waste.host_ns_per_cycle.farmem", "ns"),
    ("waste.host_ns_per_cycle.spec", "ns"),
    ("waste.host_ns_per_cycle.mesh", "ns"),
    ("waste.host_ns_per_cycle.small", "ns"),
    ("waste.record_to_json_us", "us"),
    ("cpu.cycles", "count"),
    ("cpu.retired_ops", "count"),
    ("noc.delivered", "count"),
    ("coherence.dir_requests", "count"),
    ("mem.l1_misses", "count"),
    ("mem.dram_accesses", "count"),
    ("core.spec_rollbacks", "count"),
    ("cache.get_mem_us", "us"),
    ("cache.get_disk_us", "us"),
    ("cache.mem_hits", "count"),
    ("cache.disk_hits", "count"),
    ("cache.misses", "count"),
    ("cache.put_ms", "ms"),
    ("cache.disk_entries", "count"),
    ("serve.submit_hit_us", "us"),
    ("serve.submit_miss_ms", "ms"),
    ("serve.admission_wait_ms", "ms"),
    ("serve.sim_runs", "count"),
    ("serve.joined", "count"),
    ("serve.rejected", "count"),
    ("serve.http_self_us", "us"),
    ("serve.connect_ms", "ms"),
    ("serve.connections", "count"),
    ("serve.requests", "count"),
    ("router.batch_self_ms", "ms"),
    ("router.forwarded.b0", "count"),
    ("router.forwarded.b1", "count"),
    ("router.retries", "count"),
    ("grid.spec_expand_us", "us"),
    ("grid.client_self_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("trace.unattributed_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.traced_ops", "count"),
    ("trace.untraced_ops", "count"),
    ("trace.replayed_ops", "count"),
];

/// The command-line options.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch space for cache directories; removed at exit.
    pub work: PathBuf,
}

/// What one workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate violations (empty when every output checked out).
    pub violations: Vec<String>,
    pub e2e: Metrics,
    pub layers: Metrics,
    /// Counts that must repeat exactly for a given seed.
    pub counts: Vec<(String, u64)>,
    /// Human-readable lines printed before the result.
    pub report: Vec<String>,
    pub spans: Option<SpanLog>,
}

impl Outcome {
    pub fn violation(&mut self, what: String) {
        if self.violations.len() < 20 {
            eprintln!("[perfbench] correctness: {what}");
        }
        self.violations.push(what);
    }
}

fn parse_args() -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let work = PathBuf::from(".perfbench-work").join(format!("{workload}-{}", std::process::id()));
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
        work,
    })
}

/// Compares this run's exact counts with the previous run of the same
/// workload, seed and length in this checkout (if any), then stores them.
fn check_counts(opts: &Opts, out: &mut Outcome) {
    let path = PathBuf::from(".perfbench-out").join(format!(
        "counts-{}-seed{}-{}s.txt",
        opts.workload, opts.seed, opts.seconds
    ));
    let text: String = out
        .counts
        .iter()
        .map(|(k, v)| format!("{k} {v}\n"))
        .collect();
    for line in text.lines() {
        out.report.push(format!("count {line}"));
    }
    if let Ok(previous) = std::fs::read_to_string(&path) {
        let mut differ = Vec::new();
        for (old, new) in previous.lines().zip(text.lines()) {
            if old != new {
                differ.push(format!("`{old}` then `{new}`"));
            }
        }
        if previous.lines().count() != text.lines().count() {
            differ.push("the set of counts changed".into());
        }
        if differ.is_empty() {
            out.report
                .push("counts repeat exactly against the previous run of this seed".into());
        } else {
            for d in differ {
                out.violation(format!("count differs between two runs of this seed: {d}"));
            }
        }
    }
    let _ = std::fs::create_dir_all(".perfbench-out");
    let _ = std::fs::write(&path, text);
}

/// Milliseconds a fixed splitmix64 loop takes: a probe of how fast the
/// host runs at the moment, printed before and after the workload so a
/// slow stretch of the host can be told from a slow program.
fn host_reference_ms() -> f64 {
    let start = std::time::Instant::now();
    let mut rng = gen::SplitMix64::new(1);
    let mut acc = 0u64;
    for _ in 0..4_000_000 {
        acc ^= rng.next_u64();
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&opts.work);
    if let Err(e) = std::fs::create_dir_all(&opts.work) {
        eprintln!("perfbench: cannot create {}: {e}", opts.work.display());
        return ExitCode::from(2);
    }
    let host_before = host_reference_ms();
    let result = match opts.workload.as_str() {
        "sim-mix" => sim_mix::run(&opts),
        "serve-sweep" => serve_sweep::run(&opts),
        other => Err(format!("unknown workload {other} (sim-mix | serve-sweep)")),
    };
    let _ = std::fs::remove_dir_all(&opts.work);
    let _ = std::fs::remove_dir(".perfbench-work");
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    out.report.push(format!(
        "host reference loop: {host_before:.2} ms before, {:.2} ms after (higher = slower host)",
        host_reference_ms()
    ));
    check_counts(&opts, &mut out);
    if let Some(spans) = &out.spans {
        let path = PathBuf::from(".perfbench-out")
            .join(format!("spans-{}-seed{}.jsonl", opts.workload, opts.seed));
        match spans.write_jsonl(&path) {
            Ok(()) => out
                .report
                .push(format!("spans written to {}", path.display())),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }

    let mode = if opts.trace {
        "per-layer"
    } else {
        "end-to-end"
    };
    println!(
        "== {} seed {} ({} s, {mode})",
        opts.workload, opts.seed, opts.seconds
    );
    for line in &out.report {
        println!("  {line}");
    }
    let source = if opts.trace { &out.layers } else { &out.e2e };
    let names: Vec<(&str, &str)> = if opts.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    let mut fields = Vec::new();
    for (name, unit) in names {
        let value = source.get(name).unwrap_or(0.0);
        println!("  {name:<36} {value:>16.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    for m in &source.0 {
        let listed = if opts.trace {
            PER_LAYER.contains(&(m.name.as_str(), m.unit))
        } else {
            END_TO_END.contains(&(m.name.as_str(), m.unit))
        };
        assert!(
            listed,
            "metric {} ({}) is not in the benchmark's metric list",
            m.name, m.unit
        );
    }
    let correct = out.violations.is_empty();
    if !correct {
        println!("  CORRECTNESS: {} violation(s)", out.violations.len());
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in the repository's `BENCHMARK.json`
    /// must agree name for name and unit for unit.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = tenways_sim::json::Json::parse(&text).expect("BENCHMARK.json parses");
        for (section, list) in [
            ("end_to_end", END_TO_END.to_vec()),
            ("per_layer", PER_LAYER.to_vec()),
        ] {
            let entries = doc.get(section).and_then(|s| s.as_array()).expect(section);
            let listed: Vec<(&str, &str)> = entries
                .iter()
                .map(|e| {
                    (
                        e.get("name").and_then(|v| v.as_str()).unwrap(),
                        e.get("unit").and_then(|v| v.as_str()).unwrap(),
                    )
                })
                .collect();
            assert_eq!(listed, list, "{section} differs from BENCHMARK.json");
        }
    }
}
