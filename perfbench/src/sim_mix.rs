//! `sim-mix`: a closed loop on one thread, in process. Each op parses a
//! TOML config, builds the experiment, runs it on the default scheduler
//! and serializes the record, over a seeded shuffle of four config
//! classes. The simulator does all the work; serve, cache, http and the
//! router do none.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use tenways_sim::json::ToJson;
use tenways_waste::{Experiment, RunRecord, SimConfig};

use crate::gen::SplitMix64;
use crate::measure::{self, median, Sample};
use crate::trace::SpanLog;
use crate::{Opts, Outcome};

/// The tail percentile this workload reports (fixed; see BENCHMARK.json).
pub const TAIL_PCT: f64 = 99.0;

/// How many times set-up runs; the median is reported. The first runs
/// before the measured phase, the rest at evenly spaced points of it,
/// outside the timed ops and off the phase's clock. One set-up takes
/// 0.2-0.4 s, no longer than the host stays in one speed state, so
/// set-ups run back to back all read the same state.
const SETUPS: usize = 21;

struct Entry {
    class: &'static str,
    mode: &'static str,
    weight: usize,
    toml: &'static str,
}

/// The mix, cheapest first, 40 ops per cycle. The weights put p50 in the
/// radix block (0-60% of the sorted samples), whose latency is well apart
/// from every other config's, and p99 nine tenths of the way into the
/// mcs block (87.5-100%). Both percentiles sit in the upper part of
/// their block: on a host that switches between a fast and a slow state,
/// the upper part of a block stays in the slow state, while a block's
/// middle moves with the share of time the host spent fast.
const MIX: [Entry; 9] = [
    Entry {
        class: "farmem",
        mode: "farmem/radix",
        weight: 24,
        toml: "workload = \"radix\"\nthreads = 2\n[machine]\ndram_latency = 4000\n",
    },
    Entry {
        class: "contended",
        mode: "contended/flatcomb",
        weight: 2,
        toml: "workload = \"flatcomb\"\nthreads = 8\n",
    },
    Entry {
        class: "farmem",
        mode: "farmem/dss",
        weight: 2,
        toml: "workload = \"dss\"\nthreads = 2\n[machine]\ndram_latency = 4000\n",
    },
    Entry {
        class: "spec",
        mode: "spec/oltp",
        weight: 2,
        toml: "workload = \"oltp\"\nmodel = \"sc\"\nspec = \"on-demand\"\n",
    },
    Entry {
        class: "contended",
        mode: "contended/oltp",
        weight: 1,
        toml: "workload = \"oltp\"\nthreads = 8\n",
    },
    Entry {
        class: "spec",
        mode: "spec/barnes",
        weight: 1,
        toml: "workload = \"barnes\"\nmodel = \"sc\"\nspec = \"continuous\"\n",
    },
    Entry {
        class: "mesh",
        mode: "mesh/ocean16",
        weight: 1,
        toml: "workload = \"ocean\"\nthreads = 16\n[machine]\nnoc_mesh = true\n",
    },
    Entry {
        class: "spec",
        mode: "spec/contended",
        weight: 2,
        toml: "workload = \"contended\"\nconflict = 0.2\nmodel = \"sc\"\nspec = \"on-demand\"\n",
    },
    Entry {
        class: "contended",
        mode: "contended/mcs",
        weight: 5,
        toml: "workload = \"mcs\"\nthreads = 8\nmodel = \"rmo\"\natomics = \"schweizer\"\n",
    },
];

/// The simulator classes that report `waste.run_ms.<class>`.
pub const CLASSES: [&str; 4] = ["contended", "farmem", "spec", "mesh"];

/// The `RunRecord` counters reported per layer: (metric, stat name).
/// `cpu.*` come from the run summary.
pub const RECORD_COUNTS: [(&str, &str); 5] = [
    ("noc.delivered", "noc.delivered"),
    ("coherence.dir_requests", "dir.requests"),
    ("mem.l1_misses", "l1.misses"),
    ("mem.dram_accesses", "dram.accesses"),
    ("core.spec_rollbacks", "spec.rollbacks"),
];

/// Sums the per-layer counters of a set of records.
pub fn record_counts<'a>(records: impl IntoIterator<Item = &'a RunRecord>) -> Vec<(String, u64)> {
    let mut sums = vec![
        ("cpu.cycles".to_string(), 0u64),
        ("cpu.retired_ops".into(), 0),
    ];
    sums.extend(RECORD_COUNTS.iter().map(|(m, _)| (m.to_string(), 0)));
    for r in records {
        sums[0].1 += r.summary.cycles;
        sums[1].1 += r.summary.retired_ops;
        for (i, (_, stat)) in RECORD_COUNTS.iter().enumerate() {
            sums[2 + i].1 += r.stats.get(stat);
        }
    }
    sums
}

/// One op: the timed path from config text to serialized record.
fn op(toml: &str, log: Option<(&mut SpanLog, u64)>) -> Result<RunRecord, String> {
    match log {
        None => {
            let cfg = SimConfig::from_toml_str(toml).map_err(|e| e.to_string())?;
            let record = Experiment::from_config(&cfg)
                .map_err(|e| e.to_string())?
                .run()
                .map_err(|e| e.to_string())?;
            std::hint::black_box(record.to_json());
            Ok(record)
        }
        Some((log, req)) => {
            let root = log.open("op", req, Instant::now());
            let cfg = log
                .time("sim.config_parse", req, Some(root), || {
                    SimConfig::from_toml_str(toml)
                })
                .map_err(|e| e.to_string())?;
            let record = log
                .time("waste.run", req, Some(root), || {
                    Experiment::from_config(&cfg)?.run()
                })
                .map_err(|e| e.to_string())?;
            let doc = log.time("waste.record_to_json", req, Some(root), || record.to_json());
            log.close(root, Instant::now());
            // Outside the op: what serializing the record would cost.
            std::hint::black_box(log.time("sim.json_serialize", req, None, || doc.to_string()));
            Ok(record)
        }
    }
}

/// A config's record from the set-up pass.
struct Reference {
    record: RunRecord,
    fingerprint: String,
    json_bytes: usize,
}

/// Set-up: build the mix and run every config once, untimed, recording
/// its reference record.
fn setup() -> Result<(Vec<usize>, Vec<Reference>), String> {
    let cycle: Vec<usize> = MIX
        .iter()
        .enumerate()
        .flat_map(|(i, e)| std::iter::repeat_n(i, e.weight))
        .collect();
    let mut refs = Vec::new();
    for e in &MIX {
        let record = op(e.toml, None).map_err(|err| format!("{}: {err}", e.mode))?;
        refs.push(Reference {
            fingerprint: record.fingerprint(),
            json_bytes: record.to_json().to_string().len(),
            record,
        });
    }
    Ok((cycle, refs))
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let t = Instant::now();
    let (cycle, refs) = setup()?;
    let mut setup_s = vec![t.elapsed().as_secs_f64()];

    let mut rng = SplitMix64::stream(opts.seed, "sim-mix/order");
    let t0 = Instant::now();
    let mut log = SpanLog::new(t0);
    let mut samples = Vec::new();
    let mut untraced_ms: HashMap<usize, Vec<f64>> = HashMap::new();
    let mut traced: Vec<(usize, f64)> = Vec::new();
    // Per class: run-span durations (ms) and their simulated cycles.
    let mut class_runs: HashMap<&str, (Vec<f64>, u64)> = HashMap::new();
    let mut cycles = 0u64;
    let mut ok = 0u64;
    let deadline = opts.seconds;
    // Time spent in the set-ups repeated during the measured phase.
    let mut paused = Duration::ZERO;
    let op_secs = |paused: Duration| (t0.elapsed() - paused).as_secs_f64();
    'outer: loop {
        if setup_s.len() < SETUPS
            && op_secs(paused) >= deadline * setup_s.len() as f64 / SETUPS as f64
        {
            let t = Instant::now();
            let (_, again) = setup()?;
            let took = t.elapsed();
            paused += took;
            setup_s.push(took.as_secs_f64());
            for (e, (r, a)) in MIX.iter().zip(refs.iter().zip(&again)) {
                if a.fingerprint != r.fingerprint {
                    out.violation(format!("{}: a repeated set-up gave another record", e.mode));
                }
            }
        }
        let mut order = cycle.clone();
        rng.shuffle(&mut order);
        for i in order {
            if op_secs(paused) >= deadline {
                break 'outer;
            }
            let entry = &MIX[i];
            let req = out.attempted;
            out.attempted += 1;
            let traced_op = opts.trace && req % 2 == 1;
            let start = Instant::now();
            let result = op(entry.toml, traced_op.then_some((&mut log, req)));
            let ms = start.elapsed().as_secs_f64() * 1e3;
            match result {
                Ok(record) if record.fingerprint() == refs[i].fingerprint => {
                    ok += 1;
                    cycles += record.summary.cycles;
                    samples.push(Sample {
                        ms,
                        mode: entry.mode,
                    });
                    if traced_op {
                        traced.push((i, ms));
                        let run = log
                            .spans
                            .iter()
                            .rev()
                            .find(|s| s.name == "waste.run")
                            .expect("traced op has a run span");
                        let acc = class_runs.entry(entry.class).or_default();
                        acc.0.push(run.dur_ns() as f64 / 1e6);
                        acc.1 += record.summary.cycles;
                    } else {
                        untraced_ms.entry(i).or_default().push(ms);
                    }
                }
                Ok(_) => {
                    out.failed += 1;
                    out.violation(format!(
                        "{} op {req}: fingerprint differs from the set-up pass",
                        entry.mode
                    ));
                }
                Err(e) => {
                    out.failed += 1;
                    out.violation(format!("{} op {req} failed: {e}", entry.mode));
                }
            }
        }
    }
    let secs = op_secs(paused);

    let lat = measure::latency(&samples, TAIL_PCT);
    out.report.push(format!(
        "{} ops in {secs:.2} s; set-ups {:?} s",
        out.attempted,
        setup_s
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    ));
    out.report.extend(lat.report);
    out.e2e.add("setup_s", median(&setup_s), "s");
    out.e2e.add("latency_p50_ms", lat.p50, "ms");
    out.e2e.add("latency_tail_ms", lat.tail, "ms");
    out.e2e.add("throughput_ops_s", ok as f64 / secs, "1/s");
    out.e2e.add("capacity_ops_s", ok as f64 / secs, "1/s");
    out.e2e.add(
        "success_ratio",
        ok as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    out.e2e.add("sim_cycles_per_s", cycles as f64 / secs, "1/s");
    out.e2e.add("peak_rss_mb", measure::peak_rss_mb(), "MiB");

    // The exact counts: one set-up pass over the distinct configs.
    out.counts = record_counts(refs.iter().map(|r| &r.record));
    out.counts.push(("mix.configs".into(), MIX.len() as u64));
    out.counts
        .push(("mix.cycle_ops".into(), cycle.len() as u64));

    if opts.trace {
        let dur = log.dur_ms_by_name();
        let own = log.self_ms_by_name();
        let l = &mut out.layers;
        let med = |name: &str| dur.get(name).map_or(0.0, |v| median(v));
        l.add("sim.config_parse_us", med("sim.config_parse") * 1e3, "us");
        l.add(
            "sim.json_serialize_us",
            med("sim.json_serialize") * 1e3,
            "us",
        );
        let bytes: Vec<f64> = traced
            .iter()
            .map(|&(i, _)| refs[i].json_bytes as f64)
            .collect();
        l.add("sim.json_bytes", median(&bytes), "count");
        l.add(
            "waste.record_to_json_us",
            med("waste.record_to_json") * 1e3,
            "us",
        );
        for class in CLASSES {
            let (runs, cy) = class_runs.get(class).cloned().unwrap_or_default();
            l.add(format!("waste.run_ms.{class}"), median(&runs), "ms");
            let ns: f64 = runs.iter().sum::<f64>() * 1e6;
            l.add(
                format!("waste.host_ns_per_cycle.{class}"),
                if cy == 0 { 0.0 } else { ns / cy as f64 },
                "ns",
            );
        }
        for (name, v) in &out.counts[..7] {
            l.add(name.clone(), *v as f64, "count");
        }
        // Tracing overhead: traced op time over the untraced median of
        // the same config.
        let expected: f64 = traced
            .iter()
            .map(|&(i, _)| untraced_ms.get(&i).map_or(0.0, |v| median(v)))
            .sum();
        let measured: f64 = traced.iter().map(|&(_, ms)| ms).sum();
        l.add(
            "trace.overhead_ratio",
            if expected > 0.0 {
                measured / expected
            } else {
                0.0
            },
            "ratio",
        );
        let roots = own.get("op").cloned().unwrap_or_default();
        let root_dur: f64 = dur.get("op").map_or(0.0, |v| v.iter().sum());
        l.add(
            "trace.unattributed_share",
            roots.iter().sum::<f64>() / root_dur.max(1e-9),
            "ratio",
        );
        l.add("trace.unattributed_ms", median(&roots), "ms");
        l.add("trace.spans", log.spans.len() as f64, "count");
        l.add("trace.traced_ops", traced.len() as f64, "count");
        l.add(
            "trace.untraced_ops",
            untraced_ms.values().map(Vec::len).sum::<usize>() as f64,
            "count",
        );
        out.report.push(format!(
            "attribution: op = config parse + run + to_json; unattributed {:.4}% of op time",
            100.0 * roots.iter().sum::<f64>() / root_dur.max(1e-9)
        ));
        out.spans = Some(log);
    }
    Ok(out)
}
