//! In-process serve nodes and routers on ephemeral ports, plus the small
//! configs the serve workloads send.

use std::net::TcpListener;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tenways_bench::{
    http_call, route_http, serve_http_shutdown, Router, RouterOptions, ServeOptions, SimService,
};
use tenways_sim::json::Json;

use crate::gen::SplitMix64;

/// Cheap kernels (a few ms each at 2 threads, scale 1).
const SMALL_KERNELS: [&str; 7] = ["lu", "radix", "ocean", "barnes", "oltp", "clh", "rcu"];

/// The JSON body of one small config: a partial document the server
/// overlays onto its defaults.
pub fn small_config(rng: &mut SplitMix64, seed: u64) -> String {
    let kernel = SMALL_KERNELS[rng.below(SMALL_KERNELS.len() as u64) as usize];
    format!("{{\"workload\":\"{kernel}\",\"threads\":2,\"scale\":1,\"seed\":{seed}}}")
}

/// A listening thread that can be stopped: the accept loop drains and
/// its handler threads are joined.
pub struct Listener {
    pub addr: String,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<Result<(), String>>>,
}

impl Listener {
    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn bind() -> Result<(TcpListener, String), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?
        .to_string();
    Ok((listener, addr))
}

/// A serve node: `SimService` with one worker and the default memory
/// tier, behind `serve_http` on `127.0.0.1:0`.
pub fn start_node(cache_dir: &Path) -> Result<(Arc<SimService>, Listener), String> {
    let svc = Arc::new(SimService::new(ServeOptions {
        workers: 1,
        cache_dir: cache_dir.to_path_buf(),
        ..ServeOptions::default()
    })?);
    let (listener, addr) = bind()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let thread = {
        let svc = Arc::clone(&svc);
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || serve_http_shutdown(svc, listener, None, false, shutdown))
    };
    Ok((
        svc,
        Listener {
            addr,
            shutdown,
            thread: Some(thread),
        },
    ))
}

/// A router over `backends` behind `route_http` on `127.0.0.1:0`.
pub fn start_router(backends: Vec<String>) -> Result<(Arc<Router>, Listener), String> {
    let router = Arc::new(Router::new(RouterOptions {
        backends,
        ..RouterOptions::default()
    })?);
    let (listener, addr) = bind()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let thread = {
        let router = Arc::clone(&router);
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || route_http(router, listener, None, false, shutdown))
    };
    Ok((
        router,
        Listener {
            addr,
            shutdown,
            thread: Some(thread),
        },
    ))
}

/// Polls `GET /healthz` until it answers 200.
pub fn wait_healthy(addr: &str) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match http_call(addr, "GET", "/healthz", None) {
            Ok((200, doc)) if doc.get("ok").and_then(Json::as_bool) == Some(true) => return Ok(()),
            _ if Instant::now() >= deadline => return Err(format!("{addr} never became healthy")),
            _ => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// A `u64` counter out of a `/stats`-style document (`path` dotted).
pub fn stat(doc: &Json, path: &str) -> u64 {
    let mut node = doc;
    for part in path.split('.') {
        match node.get(part) {
            Some(next) => node = next,
            None => return 0,
        }
    }
    node.as_u64().unwrap_or(0)
}

/// Copies the files of a cache directory (flat: entries plus index).
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))?;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_file() {
            std::fs::copy(&path, to.join(entry.file_name()))
                .map_err(|e| format!("copy {}: {e}", path.display()))?;
        }
    }
    Ok(())
}
