//! The benchmark's traced run: replays one workload's seeded inputs
//! in-process and times every call it makes into each layer's public
//! functions — parse, store key and lookup, state exploration, the
//! axiomatic enumerator, persistence, trace recording and replay, and
//! response rendering — the same calls, in the same order, that the
//! check service makes for that request. Nothing inside the program is
//! instrumented.
//!
//! ```text
//! bdrstbench-tracer --workload NAME --plan PLAN.tsv --bdrst BIN --work DIR \
//!     --responses OUT.tsv
//! ```
//!
//! Each plan line is `role \t cmd \t label \t source`.
//! Roles: `req` (a timed request of the workload), `fill` (warm_mixed's
//! set-up request), `probe` (an input used only to time the trace-mode
//! layers of a workload whose requests never record traces). The last
//! stdout line is one JSON object of metric name to value. Every response
//! the service gives is written to the responses file as
//! `plan line index \t cmd \t cached (0, 1 or -) \t response`, for
//! `run.py` to check with the same verdict checks as the untraced run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use bdrst_core::engine::{TraceEngine, TraceGraph};
use bdrst_core::localdrf::{check_local_drf_replayed, sc_race_freedom_reduced};
use bdrst_core::trace::LocPredicate;
use bdrst_lang::Program;
use bdrst_litmus::RunConfig;
use bdrst_race::{detect_races_replayed, DetectorConfig};
use bdrst_service::json::Json;
use bdrst_service::server::{default_run_config, handle_line, serve, witness_json, ServeConfig};
use bdrst_service::service::{outcome_strings, CheckService};
use bdrst_service::store::{version_tag, CacheEntry, CacheKey, ResultStore, StoreConfig};

/// Counts heap allocations (alloc + realloc), for allocations per state.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure delegation to `System` plus a relaxed counter bump.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds used by this process so far, all threads included (the
/// work-stealing engine explores on a pool).
fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec matching the C layout on
    // 64-bit Linux, and the clock id is a constant the kernel accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// One plan line.
struct Item {
    index: usize,
    role: String,
    cmd: String,
    label: String,
    source: String,
}

impl Item {
    fn line(&self) -> String {
        Json::obj([
            ("id", Json::Int(0)),
            ("cmd", Json::Str(self.cmd.clone())),
            ("source", Json::Str(self.source.clone())),
        ])
        .render()
    }

    fn is_trace_cmd(&self) -> bool {
        self.cmd == "check-races" || self.cmd == "check-localdrf"
    }
}

/// Samples, counts and the request-time reconciliation of one run.
struct Lab {
    samples: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, u64>,
    /// False while an input is measured a second time, so counts stay
    /// one per input.
    counting: bool,
    /// Seconds the timed layer calls on the current request's path cover.
    path_s: f64,
    /// Per request: the service's own seconds (`handle_line` plus
    /// rendering, or the CLI's in-process work) and the path seconds.
    requests: Vec<(f64, f64)>,
    /// Lines of the responses file.
    responses: Vec<String>,
}

impl Lab {
    fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    fn finish_request(&mut self, req_s: f64) {
        self.requests.push((req_s, self.path_s));
        self.path_s = 0.0;
    }

    fn count(&mut self, name: &'static str, v: u64) {
        if self.counting {
            *self.counts.entry(name).or_default() += v;
        }
    }

    /// Records a layer call's duration (seconds) under `name`, scaled to
    /// the metric's unit, and adds it to the request path when `on_path`.
    fn layer(&mut self, name: &'static str, secs: f64, scale: f64, on_path: bool) {
        self.sample(name, secs * scale);
        if on_path {
            self.path_s += secs;
        }
    }

    /// Keeps a response to `cmd` on `item` for the verdict checks;
    /// `cached` is what its `cached` flag must be, if anything.
    fn respond(&mut self, item: &Item, cmd: &str, cached: Option<bool>, resp: &Json) {
        let cached = match cached {
            Some(true) => "1",
            Some(false) => "0",
            None => "-",
        };
        self.responses.push(format!(
            "{}\t{cmd}\t{cached}\t{}",
            item.index,
            resp.render()
        ));
    }
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn store_at(dir: &Path) -> ResultStore {
    ResultStore::new(StoreConfig {
        disk_dir: Some(dir.to_path_buf()),
        ..StoreConfig::default()
    })
    .expect("store directory under the work dir")
}

fn entry_path(dir: &Path, key: CacheKey) -> PathBuf {
    dir.join(format!(
        "{:016x}-{:016x}.bdrst",
        key.fingerprint, key.version
    ))
}

fn all_nonatomic(program: &Program) -> LocPredicate {
    program.locs.nonatomic().collect()
}

/// The response line the server renders for a resolved entry (the fields
/// of `server::handle_cmd`, in the same order).
fn render_response(
    program: &Program,
    entry: &CacheEntry,
    cached: bool,
    verdict: Verdict,
) -> String {
    let mut fields = vec![
        ("id".to_string(), Json::Int(0)),
        ("ok".to_string(), Json::Bool(true)),
        ("cached".to_string(), Json::Bool(cached)),
    ];
    match verdict {
        Verdict::Outcomes => {
            let strs = |set| {
                Json::Arr(
                    outcome_strings(program, set)
                        .into_iter()
                        .map(Json::Str)
                        .collect(),
                )
            };
            fields.push(("states".into(), Json::Int(entry.visited_states as i64)));
            fields.push(("operational".into(), strs(&entry.op)));
            fields.push(("axiomatic".into(), strs(&entry.ax)));
            fields.push(("models_agree".into(), Json::Bool(entry.op == entry.ax)));
        }
        Verdict::Races(report) => {
            fields.push(("racy".into(), Json::Bool(report.racy())));
            fields.push(("events".into(), Json::Int(report.events as i64)));
            fields.push((
                "witnesses".into(),
                Json::Arr(
                    report
                        .witnesses
                        .iter()
                        .map(|w| witness_json(program, w))
                        .collect(),
                ),
            ));
        }
        Verdict::Flag(name, v) => fields.push((name.into(), Json::Bool(v))),
    }
    Json::Obj(fields).render()
}

enum Verdict {
    Outcomes,
    Races(bdrst_race::RaceReport),
    Flag(&'static str, bool),
}

struct Tracer {
    config: RunConfig,
    version: u64,
    work: PathBuf,
    seq: usize,
    lab: Lab,
}

impl Tracer {
    fn scratch(&mut self, tag: &str) -> PathBuf {
        self.seq += 1;
        let dir = self.work.join(format!("{tag}{}", self.seq));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn service_at(&self, dir: &Path) -> CheckService {
        CheckService::new(Arc::new(store_at(dir)), self.config)
    }

    /// The service's own handling of one request line: `handle_line`
    /// plus rendering, as a server worker does it.
    fn handle(&mut self, service: &CheckService, item: &Item) -> (Json, f64) {
        let line = item.line();
        timed(|| {
            let resp = handle_line(service, &line);
            black_box(resp.render());
            resp
        })
    }

    /// A cold request through the layer calls the service makes, on a
    /// fresh disk-backed store. When `on_path`, the calls count toward the
    /// request path; the reference time comes from the caller.
    /// Returns the store directory (holding the persisted entry).
    fn cold_layers(&mut self, item: &Item, on_path: bool) -> PathBuf {
        let dir = self.scratch("lay");
        let store = store_at(&dir);
        let lab = &mut self.lab;
        let (program, s) = timed(|| Program::parse(&item.source).expect("generated source parses"));
        lab.layer("lang.parse_us", s, 1e6, on_path);
        let (key, s) = timed(|| store.key_for(&program, self.version).expect("fingerprint"));
        lab.layer("store.key_us", s, 1e6, on_path);
        let (canonical, s) = timed(|| {
            let canonical = program.to_source();
            assert!(store.lookup(key, &canonical).is_none(), "fresh store hit");
            canonical
        });
        if on_path {
            lab.path_s += s;
        }
        let cpu0 = process_cpu_s();
        let allocs0 = ALLOCATIONS.load(Ordering::Relaxed);
        let ((graph, stats), s) = timed(|| {
            program
                .state_graph_with(self.config.explore, self.config.strategy)
                .expect("exploration within budget")
        });
        let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs0;
        lab.sample("engine.explore_cpu_ms", (process_cpu_s() - cpu0) * 1e3);
        lab.layer("engine.explore_ms", s, 1e3, on_path);
        lab.count("engine.states", stats.visited as u64);
        lab.count("engine.transitions", stats.transitions as u64);
        lab.sample(
            "engine.allocs_per_state",
            allocs as f64 / stats.visited.max(1) as f64,
        );
        let (op, s) = timed(|| program.outcomes_from_graph(&graph).set().clone());
        lab.layer("engine.outcomes_from_graph_us", s, 1e6, on_path);
        let (ax, s) = timed(|| {
            bdrst_axiomatic::axiomatic_outcomes(&program, self.config.enumerate)
                .expect("axiomatic enumeration within limits")
        });
        lab.layer("axiomatic.enum_ms", s, 1e3, on_path);
        lab.count("axiomatic.outcomes", ax.len() as u64);
        let entry = CacheEntry {
            source: canonical.clone(),
            op,
            ax,
            visited_states: stats.visited as u64,
            graph: store.persist_graphs().then_some(graph),
            global_racefree: OnceLock::new(),
            trace: OnceLock::new(),
            trace_infeasible: OnceLock::new(),
        };
        let (entry, s) = timed(|| store.insert(key, entry));
        lab.layer("store.persist_ms", s, 1e3, on_path);
        let (bytes, s) =
            timed(|| render_response(&program, &entry, false, Verdict::Outcomes).len());
        lab.layer("server.render_us", s, 1e6, on_path);
        lab.count("server.response_bytes", bytes as u64);
        let size = std::fs::metadata(entry_path(&dir, key)).map_or(0, |m| m.len());
        self.lab.count("store.entry_bytes", size);

        // Off the cold path: a memory hit, and a decode from disk in a
        // store that has not seen the entry.
        let (hit, s) = timed(|| store.lookup(key, &canonical));
        assert!(hit.is_some(), "warm store missed");
        self.lab.sample("store.lookup_us", s * 1e6);
        let reopened = store_at(&dir);
        let (hit, s) = timed(|| reopened.lookup(key, &canonical));
        assert!(hit.is_some(), "disk entry did not load");
        self.lab.sample("store.disk_load_ms", s * 1e3);
        dir
    }

    fn record(&mut self, program: &Program) -> TraceGraph {
        let ((graph, _), s) = timed(|| {
            TraceEngine::new(self.config.explore)
                .record(&program.locs, program.initial_machine())
                .expect("trace tree within budget")
        });
        self.lab.sample("trace.record_ms", s * 1e3);
        self.lab.count("trace.traces", graph.len() as u64);
        graph
    }

    fn race_replay(
        &mut self,
        program: &Program,
        graph: &TraceGraph,
        on_path: bool,
    ) -> bdrst_race::RaceReport {
        let (report, s) = timed(|| {
            detect_races_replayed(
                &program.locs,
                graph,
                self.config.explore,
                DetectorConfig::default(),
            )
            .expect("replay within budget")
        });
        self.lab.layer("race.replay_ms", s, 1e3, on_path);
        self.lab.count("race.events", report.events);
        report
    }

    fn localdrf_replay(&mut self, program: &Program, graph: &TraceGraph, on_path: bool) -> bool {
        let l = all_nonatomic(program);
        let (holds, s) = timed(|| {
            check_local_drf_replayed(&program.locs, graph, &l, self.config.explore).is_ok()
        });
        self.lab.layer("localdrf.replay_ms", s, 1e3, on_path);
        holds
    }

    fn sc_reduced(&mut self, program: &Program) {
        let (_, s) = timed(|| {
            sc_race_freedom_reduced(
                &program.locs,
                program.initial_machine(),
                self.config.explore,
            )
            .expect("reduced walk within budget")
        });
        self.lab.sample("localdrf.sc_reduced_ms", s * 1e3);
    }

    /// Every trace-mode layer on one program that no request path covers.
    /// Both replays' verdicts go to the responses file, in the fields a
    /// server response carries.
    fn trace_probe(&mut self, item: &Item) {
        let program = Program::parse(&item.source).expect("generated source parses");
        let graph = self.record(&program);
        let report = self.race_replay(&program, &graph, false);
        let holds = self.localdrf_replay(&program, &graph, false);
        let races = Json::obj([
            ("ok", Json::Bool(true)),
            ("racy", Json::Bool(report.racy())),
            (
                "witnesses",
                Json::Arr(
                    report
                        .witnesses
                        .iter()
                        .map(|w| witness_json(&program, w))
                        .collect(),
                ),
            ),
        ]);
        self.lab.respond(item, "check-races", None, &races);
        let localdrf = Json::obj([("ok", Json::Bool(true)), ("holds", Json::Bool(holds))]);
        self.lab.respond(item, "check-localdrf", None, &localdrf);
        self.sc_reduced(&program);
    }

    /// A cold request (cold_explore): the service's own
    /// time on a fresh store, then the same request layer by layer, then
    /// the warm handle and socket transport of the same request line.
    ///
    /// Both sides run twice, alternating, and each keeps its faster run:
    /// they are separate executions, and on a shared machine one of them
    /// can be slowed by a neighbour for a whole second. Counts are taken
    /// from the first layer-by-layer run only.
    fn cold_request(&mut self, item: &Item) {
        let (mut best_req, mut best_path) = (f64::MAX, f64::MAX);
        let mut warm = None;
        for rep in 0..2 {
            let ref_dir = self.scratch("ref");
            let service = Arc::new(self.service_at(&ref_dir));
            let (resp, secs) = self.handle(&service, item);
            self.lab.respond(item, &item.cmd, Some(false), &resp);
            best_req = best_req.min(secs);
            self.lab.counting = rep == 0;
            self.lab.path_s = 0.0;
            let dir = self.cold_layers(item, true);
            best_path = best_path.min(self.lab.path_s);
            let _ = std::fs::remove_dir_all(dir);
            if let Some((_, old)) = warm.replace((service, ref_dir)) {
                let _ = std::fs::remove_dir_all(old);
            }
        }
        self.lab.counting = true;
        self.lab.path_s = best_path;
        self.lab.finish_request(best_req);
        let (service, ref_dir) = warm.expect("two runs");
        self.warm_transport(service, item);
        let _ = std::fs::remove_dir_all(ref_dir);
    }

    /// `server.handle_us` and `server.transport_us` for one request line
    /// on a warm service, each the median of five.
    fn warm_transport(&mut self, service: Arc<CheckService>, item: &Item) {
        let warm: Vec<f64> = (0..5).map(|_| self.handle(&service, item).1).collect();
        self.lab
            .sample("server.handle_us", median(&mut warm.clone()) * 1e6);
        self.transport(service, &[item; 5], &warm);
    }

    /// `server.transport_us`: socket round-trip p50 minus `handle_line`
    /// p50 for the same request lines, on a server over `service`.
    fn transport(&mut self, service: Arc<CheckService>, items: &[&Item], handle_s: &[f64]) {
        let server =
            serve(service, "127.0.0.1:0", ServeConfig::default()).expect("bind 127.0.0.1:0");
        let stream = TcpStream::connect(server.addr()).expect("connect to the in-process server");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let mut writer = stream;
        let mut rtt = Vec::new();
        for item in items {
            let line = item.line() + "\n";
            let mut resp = String::new();
            let (_, s) = timed(|| {
                writer.write_all(line.as_bytes()).expect("send");
                reader.read_line(&mut resp).expect("receive")
            });
            rtt.push(s);
        }
        drop(writer);
        drop(reader);
        server.shutdown();
        let mut handle = handle_s.to_vec();
        self.lab.sample(
            "server.transport_us",
            (median(&mut rtt) - median(&mut handle)) * 1e6,
        );
    }

    /// warm_mixed: fill a warm service like the set-up phase, time each
    /// layer of the fill programs' cold checks and trace recordings, then
    /// replay the timed requests warm.
    fn warm(&mut self, items: &[Item]) {
        let dir = self.scratch("warm");
        let service = Arc::new(self.service_at(&dir));
        let mut probed = BTreeSet::new();
        for item in items.iter().filter(|i| i.role == "fill") {
            let (resp, _) = self.handle(&service, item);
            self.lab.respond(item, &item.cmd, None, &resp);
            if item.cmd == "check" {
                let lay = self.cold_layers(item, false);
                let _ = std::fs::remove_dir_all(lay);
            }
            if item.is_trace_cmd() && probed.insert(item.label.clone()) {
                self.trace_probe(item);
            }
        }
        let reqs: Vec<&Item> = items.iter().filter(|i| i.role == "req").collect();
        let mut handle_s = Vec::new();
        for item in &reqs {
            let (resp, secs) = self.handle(&service, item);
            self.lab.respond(item, &item.cmd, Some(true), &resp);
            handle_s.push(secs);
            self.lab.sample("server.handle_us", secs * 1e6);
            self.warm_layers(&service, item);
            self.lab.finish_request(secs);
        }
        self.transport(Arc::clone(&service), &reqs, &handle_s);
    }

    /// A warm request layer by layer: parse, key, lookup (a memory hit),
    /// the command's replay if any, and rendering.
    fn warm_layers(&mut self, service: &CheckService, item: &Item) {
        let store = service.store();
        let lab = &mut self.lab;
        let (program, s) = timed(|| Program::parse(&item.source).expect("generated source parses"));
        lab.layer("lang.parse_us", s, 1e6, true);
        let (key, s) = timed(|| store.key_for(&program, self.version).expect("fingerprint"));
        lab.layer("store.key_us", s, 1e6, true);
        let (entry, s) = timed(|| store.lookup(key, &program.to_source()));
        lab.layer("store.lookup_us", s, 1e6, true);
        let entry = entry.expect("warm entry");
        let verdict = match item.cmd.as_str() {
            "check" => Verdict::Outcomes,
            "check-global" => Verdict::Flag(
                "racefree",
                *entry.global_racefree.get().expect("memoized at fill"),
            ),
            "check-races" => {
                let graph = entry.trace.get().expect("recorded at fill");
                Verdict::Races(self.race_replay(&program, graph, true))
            }
            _ => {
                let graph = entry.trace.get().expect("recorded at fill");
                Verdict::Flag("holds", self.localdrf_replay(&program, graph, true))
            }
        };
        let (bytes, s) = timed(|| render_response(&program, &entry, true, verdict).len());
        self.lab.layer("server.render_us", s, 1e6, true);
        self.lab.count("server.response_bytes", bytes as u64);
    }

    /// `cli.spawn_ms`: one `bdrst check` process on a one-thread program
    /// with no cache, median of 15.
    fn spawn_floor(&mut self, bdrst: &Path) {
        let file = self.work.join("one-thread.litmus");
        std::fs::write(&file, "nonatomic a; thread P0 { a = 1; }").expect("write probe file");
        for _ in 0..15 {
            let (status, s) = timed(|| {
                Command::new(bdrst)
                    .arg("check")
                    .arg("--json")
                    .arg(&file)
                    .stdout(Stdio::null())
                    .stderr(Stdio::null())
                    .status()
                    .expect("spawn bdrst")
            });
            assert!(status.success(), "one-thread `bdrst check` failed");
            self.lab.sample("cli.spawn_ms", s * 1e3);
        }
    }
}

fn read_plan(path: &Path) -> Vec<Item> {
    let text = std::fs::read_to_string(path).expect("read plan");
    text.lines()
        .filter(|l| !l.is_empty())
        .enumerate()
        .map(|(index, l)| {
            let f: Vec<&str> = l.splitn(4, '\t').collect();
            assert_eq!(f.len(), 4, "plan line has four fields");
            Item {
                index,
                role: f[0].to_string(),
                cmd: f[1].to_string(),
                label: f[2].to_string(),
                source: f[3].to_string(),
            }
        })
        .collect()
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut plan, mut bdrst, mut work, mut responses) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next();
        match flag.as_str() {
            "--workload" => workload = value,
            "--plan" => plan = value.map(PathBuf::from),
            "--bdrst" => bdrst = value.map(PathBuf::from),
            "--work" => work = value.map(PathBuf::from),
            "--responses" => responses = value.map(PathBuf::from),
            _ => {
                eprintln!("unknown flag {flag}");
                return ExitCode::from(64);
            }
        }
    }
    let (Some(workload), Some(plan), Some(bdrst), Some(work), Some(responses)) =
        (workload, plan, bdrst, work, responses)
    else {
        eprintln!(
            "usage: bdrstbench-tracer --workload NAME --plan FILE --bdrst BIN --work DIR \
             --responses FILE"
        );
        return ExitCode::from(64);
    };
    let items = read_plan(&plan);
    let config = default_run_config();
    let mut t = Tracer {
        config,
        version: version_tag(&config),
        work,
        seq: 0,
        lab: Lab {
            samples: BTreeMap::new(),
            counts: BTreeMap::new(),
            counting: true,
            path_s: 0.0,
            requests: Vec::new(),
            responses: Vec::new(),
        },
    };
    let reqs: Vec<&Item> = items.iter().filter(|i| i.role == "req").collect();
    match workload.as_str() {
        "cold_explore" => {
            for item in &reqs {
                t.cold_request(item);
            }
        }
        "warm_mixed" => t.warm(&items),
        other => {
            eprintln!("unknown workload {other}");
            return ExitCode::from(64);
        }
    }
    for item in items.iter().filter(|i| i.role == "probe") {
        t.trace_probe(item);
    }
    t.spawn_floor(&bdrst);

    let lab = &mut t.lab;
    let mut req: Vec<f64> = lab.requests.iter().map(|r| r.0 * 1e3).collect();
    let mut unattributed: Vec<f64> = lab.requests.iter().map(|r| 1.0 - r.1 / r.0).collect();
    let mut out: Vec<(String, Json)> = vec![
        ("traced.request_ms".into(), Json::Num(median(&mut req))),
        (
            "traced.unattributed_frac".into(),
            Json::Num(median(&mut unattributed)),
        ),
    ];
    for (name, v) in lab.samples.iter_mut() {
        out.push((name.to_string(), Json::Num(median(v))));
    }
    for (name, v) in &lab.counts {
        out.push((name.to_string(), Json::Int(*v as i64)));
    }
    let mut text = lab.responses.join("\n");
    text.push('\n');
    std::fs::write(&responses, text).expect("write the responses file");
    println!("{}", Json::Obj(out).render());
    ExitCode::SUCCESS
}
