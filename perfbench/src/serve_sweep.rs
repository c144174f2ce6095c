//! `serve-sweep`: a router over two serve backends in process, driven by
//! one closed-loop client calling `run_sweep_server` (the
//! `tenways sweep --server` path) with seeded grids of 16-32 small
//! configs. About a quarter of the points repeat an earlier grid or
//! repeat within their own grid. The write path does the work: batch
//! canonicalize and dedup, router split and merge, admission, the worker
//! pools, small simulations, `put` into a growing disk index, and large
//! JSON documents.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tenways_bench::{
    http_call, http_request, run_sweep_server, HttpClient, JobView, ResultCache, Router,
    SimService, SweepParams, SweepSpec,
};
use tenways_sim::json::{Json, ToJson};
use tenways_waste::{Experiment, SimConfig};

use crate::gen::SplitMix64;
use crate::measure::{self, median, Sample};
use crate::node::{copy_dir, small_config, start_node, start_router, stat, wait_healthy, Listener};
use crate::trace::SpanLog;
use crate::{Opts, Outcome};

pub const TAIL_PCT: f64 = 85.0;
const SETUPS: usize = 9;
/// Seed-axis lengths of one block of ten grids (in seeded order); with
/// the two-value thread axis, grids of 16, 20, 24 and 32 points. The size
/// mix is the same for every seed: p50 falls in the middle of the
/// 24-point block (30-70% of the sorted samples) and p85 in the middle
/// of the 32-point block (70-100%).
const SEED_AXIS: [usize; 10] = [8, 8, 10, 12, 12, 12, 12, 16, 16, 16];
const THREAD_AXIS: [u64; 2] = [2, 3];
const KERNELS: [&str; 4] = ["lu", "radix", "ocean", "barnes"];
/// Exact counts are taken over this prefix of the grids.
const COUNT_PREFIX: usize = 8;
const SAMPLE: usize = 12;
/// Traced grids replayed layer by layer. Each replay takes about as long
/// as the grid did, so the cap keeps a traced run within a fixed time of
/// an untraced one whatever `--seconds` is.
const REPLAYED: usize = 24;

struct Grid {
    spec: SweepSpec,
    points: usize,
    /// Canonical key of every point, in expansion order.
    keys: Vec<String>,
    /// Points whose key first appears in this grid (new to the cluster).
    first: Vec<bool>,
}

/// The seeded grid generator. Grids are made one at a time, between ops,
/// so a faster cluster never runs out of them.
struct GridGen {
    rng: SplitMix64,
    /// Seed-axis values used so far, per kernel.
    used: HashMap<&'static str, Vec<u64>>,
    seen: HashSet<String>,
    next_seed: u64,
    sizes: Vec<usize>,
    /// Kernels left in the current block (each kernel once per block).
    kernels: Vec<&'static str>,
    made: usize,
}

impl GridGen {
    fn new(seed: u64) -> GridGen {
        GridGen {
            rng: SplitMix64::stream(seed, "serve-sweep/grids"),
            used: HashMap::new(),
            seen: HashSet::new(),
            next_seed: 1,
            sizes: Vec::new(),
            kernels: Vec::new(),
            made: 0,
        }
    }

    fn next(&mut self) -> Result<Grid, String> {
        if self.sizes.is_empty() {
            self.sizes = SEED_AXIS.to_vec();
            self.rng.shuffle(&mut self.sizes);
        }
        let n = self.sizes.pop().expect("refilled");
        if self.kernels.is_empty() {
            self.kernels = KERNELS.to_vec();
            self.rng.shuffle(&mut self.kernels);
        }
        let kernel = self.kernels.pop().expect("refilled");
        // Exactly a quarter of the seed values repeat, at seeded positions.
        let mut repeat: Vec<bool> = (0..n).map(|i| i < n / 4).collect();
        self.rng.shuffle(&mut repeat);
        let mut seeds = Vec::with_capacity(n);
        for again in repeat {
            let earlier = self.used.entry(kernel).or_default();
            let s = if again && !earlier.is_empty() {
                earlier[self.rng.below(earlier.len() as u64) as usize]
            } else {
                self.next_seed += 1;
                self.next_seed
            };
            earlier.push(s);
            seeds.push(s.to_string());
        }
        let threads: Vec<String> = THREAD_AXIS.iter().map(u64::to_string).collect();
        let toml = format!(
            "workload = \"{kernel}\"\nthreads = 2\nscale = 1\n[sweep]\nid = \"grid{}\"\n[grid]\nseed = [{}]\nthreads = [{}]\n",
            self.made,
            seeds.join(", "),
            threads.join(", ")
        );
        self.made += 1;
        let spec = SweepSpec::from_toml_str(&toml, "grid")?;
        let keys: Vec<String> = spec
            .points()?
            .iter()
            .map(|p| p.config.cache_key())
            .collect();
        let first = keys.iter().map(|k| self.seen.insert(k.clone())).collect();
        Ok(Grid {
            spec,
            points: keys.len(),
            keys,
            first,
        })
    }
}

struct Cluster {
    nodes: Vec<(Arc<SimService>, Listener)>,
    router: Arc<Router>,
    front: Listener,
}

impl Cluster {
    fn stop(self) {
        self.front.stop();
        drop(self.router);
        for (_, l) in self.nodes {
            l.stop();
        }
    }

    fn sim_runs(&self) -> u64 {
        self.nodes.iter().map(|(s, _)| s.sim_runs()).sum()
    }
}

/// Set-up: two backends and the router, then wait until both backends
/// are healthy through the router.
fn setup(opts: &Opts, k: usize) -> Result<Cluster, String> {
    let mut nodes = Vec::new();
    for b in 0..2 {
        nodes.push(start_node(&opts.work.join(format!("setup{k}-b{b}")))?);
    }
    let addrs: Vec<String> = nodes.iter().map(|(_, l)| l.addr.clone()).collect();
    for a in &addrs {
        wait_healthy(a)?;
    }
    let (router, front) = start_router(addrs)?;
    wait_healthy(&front.addr)?;
    if router.backends_up() != 2 {
        return Err("a backend is down after set-up".into());
    }
    Ok(Cluster {
        nodes,
        router,
        front,
    })
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut gen = GridGen::new(opts.seed);
    let mut plan: Vec<Grid> = Vec::new();
    let mut setup_s = Vec::new();
    let mut cluster = None;
    for k in 0..SETUPS {
        if let Some(c) = cluster.take() {
            Cluster::stop(c);
        }
        let t = Instant::now();
        cluster = Some(setup(opts, k)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let cluster = cluster.expect("at least one set-up");
    let front = cluster.front.addr.clone();
    let params = SweepParams {
        out_dir: opts.work.join("sweep-out"),
        ..SweepParams::default()
    };
    let before: Vec<Json> = cluster.nodes.iter().map(|(s, _)| s.stats_json()).collect();

    let t0 = Instant::now();
    let mut log = SpanLog::new(t0);
    let mut samples = Vec::new();
    let mut traced: Vec<(usize, f64)> = Vec::new();
    let mut untraced: HashMap<usize, Vec<f64>> = HashMap::new();
    let mut done = 0usize;
    let mut ok = 0u64;
    let mut cycles = 0u64;
    let mut sim_runs_at_prefix = None;
    while t0.elapsed().as_secs_f64() < opts.seconds {
        plan.push(gen.next()?);
        let g = &plan[done];
        let start = Instant::now();
        let report = run_sweep_server(&g.spec, &front, &params);
        let end = Instant::now();
        let ms = (end - start).as_secs_f64() * 1e3;
        let traced_op = opts.trace && done % 2 == 1;
        if traced_op {
            log.record("grid", done as u64, None, start, end);
        }
        out.attempted += 1;
        let mut good = false;
        match report {
            Ok(r) if r.all_ok() && r.ok == g.points => {
                let rows = r.doc.get("rows").and_then(Json::as_array).unwrap_or(&[]);
                good = rows.len() == g.points;
                for (i, row) in rows.iter().enumerate() {
                    if g.first[i] {
                        cycles += stat(row, "cycles");
                    }
                }
            }
            Ok(r) => out.violation(format!(
                "grid {done}: {} of {} points ok, {} failed",
                r.ok, g.points, r.failed
            )),
            Err(e) => out.violation(format!("grid {done}: {e}")),
        }
        if good {
            ok += 1;
            let mode = match g.points {
                16 => "16 points",
                20 => "20 points",
                24 => "24 points",
                _ => "32 points",
            };
            samples.push(Sample { ms, mode });
            if traced_op {
                traced.push((done, ms));
            } else {
                untraced.entry(g.points).or_default().push(ms);
            }
        } else {
            out.failed += 1;
        }
        done += 1;
        if done == COUNT_PREFIX {
            sim_runs_at_prefix = Some(cluster.sim_runs());
        }
    }
    let secs = t0.elapsed().as_secs_f64();

    // Gate: the cluster simulated each distinct new key exactly once.
    let expected: usize = plan[..done]
        .iter()
        .map(|g| g.first.iter().filter(|f| **f).count())
        .sum();
    if cluster.sim_runs() != expected as u64 {
        out.violation(format!(
            "cluster ran {} simulations for {expected} distinct keys",
            cluster.sim_runs()
        ));
    }
    // Gate: a seeded sample of records matches a direct run.
    let mut rng = SplitMix64::stream(opts.seed, "serve-sweep/sample");
    for _ in 0..SAMPLE {
        let g = &plan[rng.below(done.max(1) as u64) as usize];
        let i = rng.below(g.points as u64) as usize;
        let point = &g.spec.points()?[i];
        let (status, doc) = http_call(&front, "GET", &format!("/jobs/{}", g.keys[i]), None)?;
        let served = doc.get("record").map(Json::to_string);
        let direct = Experiment::from_config(&point.config)
            .map_err(|e| e.to_string())?
            .run()
            .map_err(|e| e.to_string())?
            .to_json()
            .to_string();
        if status != 200 || served.as_deref() != Some(direct.as_str()) {
            out.violation(format!(
                "{} {}: served record differs from a direct run",
                g.spec.id, point.label
            ));
        }
    }

    let lat = measure::latency(&samples, TAIL_PCT);
    out.report.push(format!(
        "{done} grids ({} points) in {secs:.2} s; set-ups {:?} ms",
        plan[..done].iter().map(|g| g.points).sum::<usize>(),
        setup_s
            .iter()
            .map(|s| (s * 1e4).round() / 10.0)
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

    while plan.len() < COUNT_PREFIX {
        plan.push(gen.next()?);
    }
    let prefix = &plan[..COUNT_PREFIX];
    let points: usize = prefix.iter().map(|g| g.points).sum();
    let mut unique = 0;
    for g in prefix {
        let mut k: Vec<&String> = g.keys.iter().collect();
        k.sort();
        k.dedup();
        unique += k.len();
    }
    let new: usize = prefix.iter().flat_map(|g| &g.first).filter(|f| **f).count();
    out.counts = vec![
        ("prefix.grids".into(), COUNT_PREFIX as u64),
        ("prefix.points".into(), points as u64),
        ("prefix.unique_in_batch".into(), unique as u64),
        ("prefix.deduplicated".into(), (points - unique) as u64),
        ("prefix.new_keys".into(), new as u64),
        (
            "prefix.cluster_sim_runs".into(),
            sim_runs_at_prefix.unwrap_or(0),
        ),
    ];
    if sim_runs_at_prefix.is_none() {
        out.violation(format!(
            "only {done} grids ran; the counts need {COUNT_PREFIX}"
        ));
    }

    if opts.trace {
        trace_layers(
            opts, &mut out, &plan, &cluster, &params, &traced, &untraced, &mut log, &before,
        )?;
        out.spans = Some(log);
    }
    cluster.stop();
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn trace_layers(
    opts: &Opts,
    out: &mut Outcome,
    plan: &[Grid],
    cluster: &Cluster,
    params: &SweepParams,
    traced: &[(usize, f64)],
    untraced: &HashMap<usize, Vec<f64>>,
    log: &mut SpanLog,
    before: &[Json],
) -> Result<(), String> {
    let front = &cluster.front.addr;
    let copy = opts.work.join("replay");
    copy_dir(&opts.work.join(format!("setup{}-b0", SETUPS - 1)), &copy)?;
    let mut cache = ResultCache::open(&copy, 128)?;
    let after: Vec<Json> = cluster.nodes.iter().map(|(s, _)| s.stats_json()).collect();

    let mut router_self = Vec::new();
    let mut client_self = Vec::new();
    let mut http_self = Vec::new();
    let mut bytes = Vec::new();
    let mut run_ms = Vec::new();
    let mut run_cycles = 0u64;
    let mut put_ms = Vec::new();
    let mut mem_us = Vec::new();
    let mut disk_us = Vec::new();
    let mut lat_sum = 0.0;
    let mut rest_sum = 0.0;
    let mut rest = Vec::new();
    let replayed = &traced[..traced.len().min(REPLAYED)];
    for &(g_idx, grid_ms) in replayed {
        let g = &plan[g_idx];
        let req = g_idx as u64;
        let root = log.open("replay", req, Instant::now());
        let points = log.time("grid.spec_expand", req, Some(root), || g.spec.points())?;
        // Outside the replay: each point's config parsed from its JSON
        // form and keyed, as a backend does for every point of a batch.
        for p in &points {
            let text = p.config.to_json().to_string();
            let cfg = log
                .time("sim.config_parse", req, None, || {
                    SimConfig::from_json_str(&text)
                })
                .map_err(|e| e.to_string())?;
            log.time("sim.cache_key", req, None, || cfg.cache_key());
        }
        let body = log.time("sim.json_serialize", req, Some(root), || {
            Json::obj([(
                "configs",
                Json::Arr(
                    points
                        .iter()
                        .map(|p| {
                            Json::obj([
                                ("label", Json::from(p.label.clone())),
                                ("config", p.config.to_json()),
                            ])
                        })
                        .collect(),
                ),
            )])
            .to_string()
        });
        // The batch through the router, now fully cached.
        let s = Instant::now();
        let (status, reply) =
            http_call(front, "POST", "/batch", Some(("application/json", &body)))?;
        let router_ms = s.elapsed().as_secs_f64() * 1e3;
        log.record("router.round_trip", req, Some(root), s, Instant::now());
        if status != 200 {
            return Err(format!("replayed batch answered {status}"));
        }
        let text = reply.to_string();
        bytes.push(text.len() as f64);
        log.time("sim.json_parse", req, Some(root), || Json::parse(&text))
            .map_err(|e| e.to_string())?;

        // The same batch sent directly, split by owner, in parallel.
        let mut groups: Vec<Vec<(String, SimConfig)>> = vec![Vec::new(); 2];
        let mut owned = HashSet::new();
        for (p, key) in points.iter().zip(&g.keys) {
            if owned.insert(key.clone()) {
                let owner = cluster.router.owner(key).ok_or("no live backend")?;
                groups[owner].push((p.label.clone(), p.config.clone()));
            }
        }
        let s = Instant::now();
        let submit_ms: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = groups
                .iter()
                .enumerate()
                .filter(|(_, grp)| !grp.is_empty())
                .map(|(b, grp)| {
                    let addr = cluster.nodes[b].1.addr.clone();
                    let svc = Arc::clone(&cluster.nodes[b].0);
                    scope.spawn(move || {
                        let body = Json::obj([(
                            "configs",
                            Json::Arr(
                                grp.iter()
                                    .map(|(l, c)| {
                                        Json::obj([
                                            ("label", Json::from(l.clone())),
                                            ("config", c.to_json()),
                                        ])
                                    })
                                    .collect(),
                            ),
                        )])
                        .to_string();
                        let s = Instant::now();
                        let r =
                            http_call(&addr, "POST", "/batch", Some(("application/json", &body)));
                        let rt = s.elapsed().as_secs_f64() * 1e3;
                        let s = Instant::now();
                        std::hint::black_box(svc.submit_batch(grp, None));
                        let submit = s.elapsed().as_secs_f64() * 1e3;
                        (r.is_ok(), rt - submit)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    let (ok, self_ms) = h.join().expect("direct batch");
                    if ok {
                        self_ms
                    } else {
                        f64::NAN
                    }
                })
                .collect()
        });
        let direct_ms = s.elapsed().as_secs_f64() * 1e3;
        log.record("backend.round_trip", req, Some(root), s, Instant::now());
        http_self.extend(submit_ms.iter().map(|ms| ms * 1e3));
        router_self.push(router_ms - direct_ms);

        // The whole client path again, now cached, between two more
        // router round trips of the same batch.
        let rt = || -> Result<f64, String> {
            let s = Instant::now();
            http_call(front, "POST", "/batch", Some(("application/json", &body)))?;
            Ok(s.elapsed().as_secs_f64() * 1e3)
        };
        let before_ms = rt()?;
        let s = Instant::now();
        run_sweep_server(&g.spec, front, params)?;
        let sweep_ms = s.elapsed().as_secs_f64() * 1e3;
        log.record("grid.cached_sweep", req, Some(root), s, Instant::now());
        let after_ms = rt()?;
        client_self.push(sweep_ms - (before_ms + after_ms) / 2.0);

        // The read path: every point's key against a copy of backend 0's
        // cache, in grid order (backend 1's keys miss).
        for key in &g.keys {
            let before = cache.stats();
            let s = Instant::now();
            std::hint::black_box(cache.get(key));
            let us = s.elapsed().as_secs_f64() * 1e6;
            let now = cache.stats();
            if now.mem_hits > before.mem_hits {
                mem_us.push(us);
            } else if now.disk_hits > before.disk_hits {
                disk_us.push(us);
            }
        }

        // The write path: each new point simulated directly and put into
        // a copy of a backend's cache.
        let mut fresh_ms = [0.0f64; 2];
        for (i, p) in points.iter().enumerate() {
            if !g.first[i] {
                continue;
            }
            let s = Instant::now();
            let record = Experiment::from_config(&p.config)
                .map_err(|e| e.to_string())?
                .run()
                .map_err(|e| e.to_string())?;
            let ms = s.elapsed().as_secs_f64() * 1e3;
            log.record("waste.run", req, Some(root), s, Instant::now());
            run_ms.push(ms);
            run_cycles += record.summary.cycles;
            let doc = record.to_json();
            let s = Instant::now();
            cache.put(&g.keys[i], doc)?;
            let put = s.elapsed().as_secs_f64() * 1e3;
            log.record("cache.put", req, Some(root), s, Instant::now());
            put_ms.push(put);
            let owner = cluster.router.owner(&g.keys[i]).unwrap_or(0);
            fresh_ms[owner] += ms + put;
        }
        log.close(root, Instant::now());

        // Attribution of the uncached grid: client self + router self +
        // cached direct round trip + the busier backend's simulate-and-put.
        let attributed = sweep_ms + fresh_ms[0].max(fresh_ms[1]);
        lat_sum += grid_ms;
        rest_sum += grid_ms - attributed;
        rest.push(grid_ms - attributed);
    }

    let hit_us: Vec<f64> = traced
        .iter()
        .take(16)
        .filter_map(|&(g, _)| {
            let cfg = plan[g].spec.points().ok()?.into_iter().next()?.config;
            let owner = cluster.router.owner(&cfg.cache_key())?;
            let s = Instant::now();
            cluster.nodes[owner].0.submit(&cfg).ok()?;
            Some(s.elapsed().as_secs_f64() * 1e6)
        })
        .collect();
    let cs = cache.stats();

    // Connection set-up: the first point of each traced grid (cached) as
    // `POST /run` to its owner, on a new connection and on a kept-alive
    // one.
    let mut clients: Vec<HttpClient> = cluster
        .nodes
        .iter()
        .map(|(_, l)| HttpClient::new(&l.addr))
        .collect();
    let mut oneshot_ms = Vec::new();
    let mut keepalive_ms = Vec::new();
    for &(g, _) in traced.iter().take(16) {
        let Some(p) = plan[g].spec.points()?.into_iter().next() else {
            continue;
        };
        let owner = cluster.router.owner(&p.config.cache_key()).unwrap_or(0);
        let body = p.config.to_json().to_string();
        let post = Some(("application/json", body.as_str()));
        let s = Instant::now();
        let once = http_request(&cluster.nodes[owner].1.addr, "POST", "/run", post);
        oneshot_ms.push(s.elapsed().as_secs_f64() * 1e3);
        let s = Instant::now();
        let kept = clients[owner].request("POST", "/run", post);
        keepalive_ms.push(s.elapsed().as_secs_f64() * 1e3);
        for reply in [once, kept] {
            if reply.map(|r| r.status) != Ok(200) {
                return Err("replayed POST /run did not answer 200".into());
            }
        }
    }

    // Misses: fresh configs submitted to an empty service. A second
    // thread polls the job's status to see when a worker picked it up:
    // the admission wait.
    let (miss_svc, miss_listener) = start_node(&opts.work.join("miss"))?;
    let mut miss_rng = SplitMix64::stream(opts.seed, "serve-sweep/miss");
    let mut miss_ms = Vec::new();
    let mut wait_ms = Vec::new();
    for i in 0..16u64 {
        let cfg = SimConfig::from_json_str(&small_config(&mut miss_rng, 9_000_000 + i))
            .map_err(|e| e.to_string())?;
        let key = cfg.cache_key();
        let s = Instant::now();
        let picked_up = std::thread::scope(|scope| {
            let poll = scope.spawn(|| loop {
                let waiting = matches!(
                    miss_svc.job_status(&key),
                    JobView::Pending | JobView::Unknown
                );
                if !waiting || s.elapsed() > Duration::from_secs(10) {
                    return s.elapsed().as_secs_f64() * 1e3;
                }
            });
            let answer = miss_svc.submit(&cfg);
            miss_ms.push(s.elapsed().as_secs_f64() * 1e3);
            answer.map(|_| poll.join().expect("status poller"))
        });
        wait_ms.push(picked_up.map_err(|e| e.to_string())?);
    }
    miss_listener.stop();

    let dur = log.dur_ms_by_name();
    let med = |name: &str| dur.get(name).map_or(0.0, |v| median(v));
    let cluster_stats = cluster.router.cluster_stats_json();
    let backends = cluster_stats
        .get("backends")
        .and_then(Json::as_array)
        .unwrap_or(&[]);
    let delta = |k: &str| -> f64 {
        after
            .iter()
            .zip(before)
            .map(|(a, b)| (stat(a, k) - stat(b, k)) as f64)
            .sum()
    };
    // Tracing overhead: traced grid time over the untraced median of
    // grids of the same size.
    let expected: f64 = traced
        .iter()
        .map(|&(g, _)| untraced.get(&plan[g].points).map_or(0.0, |v| median(v)))
        .sum();
    let measured: f64 = traced.iter().map(|&(_, ms)| ms).sum();

    let l = &mut out.layers;
    l.add("sim.config_parse_us", med("sim.config_parse") * 1e3, "us");
    l.add("sim.cache_key_us", med("sim.cache_key") * 1e3, "us");
    l.add("sim.json_parse_ms", med("sim.json_parse"), "ms");
    l.add("sim.json_bytes", median(&bytes), "count");
    l.add(
        "sim.json_serialize_us",
        med("sim.json_serialize") * 1e3,
        "us",
    );
    l.add("waste.run_ms.small", median(&run_ms), "ms");
    l.add(
        "waste.host_ns_per_cycle.small",
        run_ms.iter().sum::<f64>() * 1e6 / run_cycles.max(1) as f64,
        "ns",
    );
    l.add("cache.get_mem_us", median(&mem_us), "us");
    l.add("cache.get_disk_us", median(&disk_us), "us");
    l.add("cache.mem_hits", cs.mem_hits as f64, "count");
    l.add("cache.disk_hits", cs.disk_hits as f64, "count");
    l.add("cache.misses", cs.misses as f64, "count");
    l.add("cache.put_ms", median(&put_ms), "ms");
    l.add("cache.disk_entries", delta("cache.disk_entries"), "count");
    l.add("serve.submit_hit_us", median(&hit_us), "us");
    l.add("serve.submit_miss_ms", median(&miss_ms), "ms");
    l.add("serve.admission_wait_ms", median(&wait_ms), "ms");
    l.add("serve.sim_runs", delta("sim_runs"), "count");
    l.add("serve.joined", delta("joined"), "count");
    l.add("serve.rejected", delta("rejected"), "count");
    l.add("serve.connections", delta("connections"), "count");
    l.add("serve.requests", delta("requests"), "count");
    l.add("serve.http_self_us", median(&http_self), "us");
    l.add(
        "serve.connect_ms",
        median(&oneshot_ms) - median(&keepalive_ms),
        "ms",
    );
    l.add("router.batch_self_ms", median(&router_self), "ms");
    for (i, b) in backends.iter().enumerate().take(2) {
        l.add(
            format!("router.forwarded.b{i}"),
            stat(b, "forwarded") as f64,
            "count",
        );
    }
    l.add(
        "router.retries",
        stat(&cluster_stats, "router.retries") as f64,
        "count",
    );
    l.add("grid.spec_expand_us", med("grid.spec_expand") * 1e3, "us");
    l.add("grid.client_self_ms", median(&client_self), "ms");
    l.add(
        "trace.overhead_ratio",
        measured / expected.max(1e-9),
        "ratio",
    );
    l.add(
        "trace.unattributed_share",
        rest_sum / lat_sum.max(1e-9),
        "ratio",
    );
    l.add("trace.unattributed_ms", median(&rest), "ms");
    l.add("trace.spans", log.spans.len() as f64, "count");
    l.add("trace.traced_ops", traced.len() as f64, "count");
    l.add(
        "trace.untraced_ops",
        untraced.values().map(Vec::len).sum::<usize>() as f64,
        "count",
    );
    l.add("trace.replayed_ops", replayed.len() as f64, "count");
    out.report.push(format!(
        "attribution: grid = client self + router self + cached direct batch + busier backend's simulate-and-put; unattributed {:.1}% of grid latency",
        100.0 * rest_sum / lat_sum.max(1e-9)
    ));
    Ok(())
}
