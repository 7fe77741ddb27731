//! End-to-end benchmark of the `hcl` distance-query system, with a
//! traced run that times each layer. See `perfbench/README.md` for the
//! workloads, the metrics, and the load model.
//!
//! Usage: `hcl-perfbench --hcl BIN --work-dir DIR --workload NAME
//! --seed N --seconds S --trace 0|1`. The last line of stdout is the
//! result object; the line before it is the run record.

mod layers;
mod load;
mod proc;
mod stats;
mod trace;

use hcl_core::rng::SplitMix64;
use hcl_core::{bfs, testkit, DeltaGraph, EdgeDelta, Graph, GraphBuilder};
use hcl_index::{BuildOptions, HighwayCoverIndex, QueryContext, SelectionStrategy};
use load::LoadRun;
use stats::{json_str, median, quantile, sorted, tail, valid_name, TAIL_BEYOND};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;
use trace::Trace;

/// One graph family the whole pipeline runs on.
struct Workload {
    name: &'static str,
    family: &'static str,
    /// Barabási–Albert attachments per vertex, or Erdős–Rényi mean degree.
    param: f64,
    /// Open-loop rate of the latency and churn phases, requests/s: about
    /// a third of what one connection sustains, so the server is neither
    /// idle (an idle virtual CPU wakes slowly) nor queueing.
    ref_rate: f64,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "ba",
        family: "barabasi-albert",
        param: 5.0,
        ref_rate: 15_000.0,
    },
    Workload {
        name: "er",
        family: "erdos-renyi",
        param: 10.0,
        ref_rate: 10_000.0,
    },
];

const VERTICES: usize = 30_000;
const LANDMARKS: usize = 32;
/// Pairs the query phases cycle through; each has a reference answer.
const PAIR_POOL: usize = 20_000;
/// Pairs also checked against a plain BFS, to check the reference itself.
const BFS_CHECKS: usize = 8;
/// Pairs compared after the churn and again after the restart.
const SAMPLE: usize = 2_000;
/// Builds (and first answers) timed for `setup_s`; the median is kept.
const SETUP_REPEATS: usize = 3;
/// p99 latency a ladder rung must meet, in µs.
const LATENCY_LIMIT_US: f64 = 1_000.0;
/// Highest ladder rung: rung `k` runs at the reference rate times
/// `2^(k/16)`, so the ladder spans four octaves above it.
const LADDER_TOP: u32 = 4 * stats::RUNGS_PER_OCTAVE;
/// Churn script: this many cycles of 4 inserts then 1 delete. 32
/// inserts put a tail percentile (p68.75) above the median.
const CHURN_CYCLES: usize = 8;
const INSERTS_PER_DELETE: usize = 4;
/// Pairs per stdin batch: a whole number of the pool's 256-pair chunks,
/// so every answer is flushed while stdin stays open.
const STDIN_BATCH: usize = 256 * 256;
const STDIN_TIMED: usize = 3;
/// `serve --listen --workers`: one handler per persistent query
/// connection (one) plus one, so `POST /update` never queues behind them.
const WORKERS: usize = 2;

/// End-to-end metrics (untraced run), with units: the ones steady enough
/// to gate. Every latency, rate and duration is reported in the run
/// record instead: on a shared virtual machine the host's speed drifts so
/// much from run to run that their spread reaches the widest bound a gate
/// may allow (see README.md).
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("disk_write_bytes_per_delta", "B"),
    ("index_bytes_per_edge", "B"),
    ("server_peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced run), with units.
const PER_LAYER: [(&str, &str); 34] = [
    ("core.csr_build_ms", "ms"),
    ("core.bfs_full_ms", "ms"),
    ("core.delta_materialise_ms", "ms"),
    ("index.build_ms", "ms"),
    ("index.label_entries", "count"),
    ("index.build_bfs_visits", "count"),
    ("index.build_dominated", "count"),
    ("index.query_us_p50", "us"),
    ("index.query_us_p99", "us"),
    ("index.share_label_hit", "ratio"),
    ("index.share_highway", "ratio"),
    ("index.share_residual_bfs", "ratio"),
    ("index.bfs_nodes_per_query", "count"),
    ("index.hub_entries_per_query", "count"),
    ("index.repair_insert_ms_p50", "ms"),
    ("index.repair_delete_ms_p50", "ms"),
    ("index.trees_per_insert", "count"),
    ("index.full_relabel_frac", "ratio"),
    ("index.flatten_ms", "ms"),
    ("store.save_ms", "ms"),
    ("store.save_bytes", "B"),
    ("store.serialize_ms", "ms"),
    ("store.reparse_ms", "ms"),
    ("store.open_ms", "ms"),
    ("store.crc_ms", "ms"),
    ("store.open_journal_ms", "ms"),
    ("store.swap_us", "us"),
    ("serve.server_p50_us", "us"),
    ("serve.server_p99_us", "us"),
    ("serve.overhead_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.update_other_ms", "ms"),
    ("gen.lag_us_p99", "us"),
    ("trace.overhead_frac", "ratio"),
];

struct Args {
    hcl: PathBuf,
    work_dir: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut hcl, mut work_dir, mut workload) = (None, None, None);
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        let bad = |_| format!("invalid value for {flag}: `{value}`");
        match flag.as_str() {
            "--hcl" => hcl = Some(PathBuf::from(&value)),
            "--work-dir" => work_dir = Some(PathBuf::from(&value)),
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(e.to_string()))?),
            "--seconds" => {
                seconds =
                    Some(value.parse::<f64>().map_err(|e| bad(e.to_string()))?).filter(|s| *s > 0.0)
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad(String::new())),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |f: &str| format!("missing {f}");
    Ok(Args {
        hcl: hcl.ok_or_else(|| missing("--hcl"))?,
        work_dir: work_dir.ok_or_else(|| missing("--work-dir"))?,
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds (> 0)"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
    })
}

/// Operations attempted and failed, with the first few failures.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    fn count(&mut self, attempted: usize, failed: usize, what: impl FnOnce() -> String) {
        self.attempted += attempted as u64;
        self.failed += failed as u64;
        if failed > 0 && self.notes.len() < 20 {
            self.notes.push(what());
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.count(1, usize::from(!ok), what);
    }

    fn load(&mut self, phase: &str, run: &LoadRun) {
        let bad = run.wrong + run.missing();
        self.count(run.sent, bad, || {
            format!(
                "{phase}: {} wrong and {} missing of {} answers",
                run.wrong,
                run.missing(),
                run.sent
            )
        });
    }
}

/// Everything one run measured and recorded.
struct Run {
    trace: Trace,
    tally: Tally,
    e2e: Vec<(&'static str, f64)>,
    layer: Vec<(&'static str, f64)>,
    samples: Vec<(&'static str, usize)>,
    record: Vec<(&'static str, String)>,
}

impl Run {
    fn e2e(&mut self, name: &'static str, value: f64, samples: usize) {
        self.e2e.push((name, value));
        self.samples.push((name, samples));
    }

    fn layer(&mut self, values: layers::Values) {
        self.layer.extend(values);
    }

    fn note(&mut self, key: &'static str, json: String) {
        self.record.push((key, json));
    }

    /// An end-to-end figure reported in the record but not gated.
    fn reported(&mut self, name: &'static str, value: f64, samples: usize) {
        self.note(name, value.to_string());
        self.samples.push((name, samples));
    }

    /// Records one request span per answered query of a load phase.
    fn load_spans(&mut self, name: &'static str, parent: Option<usize>, run: &LoadRun) {
        if !self.trace.on() {
            return;
        }
        for (i, &lat) in run.latency_us.iter().enumerate() {
            let due = run.start + std::time::Duration::from_secs_f64(i as f64 / run.rate);
            let end = due + std::time::Duration::from_secs_f64(lat / 1e6);
            self.trace.record(name, i as u64, parent, due, end);
        }
    }
}

/// The seeded inputs of one run.
struct Inputs {
    edges: Vec<(u32, u32)>,
    graph: Graph,
    csr_build_ms: Vec<f64>,
    pairs: Vec<(u32, u32)>,
    deltas: Vec<EdgeDelta>,
}

fn generate(w: &Workload, seed: u64) -> Inputs {
    let mut seeds = SplitMix64::new(seed);
    let generated = match w.name {
        "ba" => testkit::barabasi_albert(VERTICES, w.param as usize, seeds.next_u64()),
        _ => testkit::erdos_renyi_avg_degree(VERTICES, w.param, seeds.next_u64()),
    };
    let mut edges = Vec::with_capacity(generated.num_edges());
    for u in 0..generated.num_vertices() as u32 {
        edges.extend(
            generated
                .neighbors(u)
                .iter()
                .filter(|&&v| u < v)
                .map(|&v| (u, v)),
        );
    }
    // Rebuilt from the edge list exactly as `hcl` loads it (the vertex
    // count is the largest id + 1), timed for `core.csr_build_ms`.
    let mut builder = GraphBuilder::new();
    for &(u, v) in &edges {
        builder.add_edge(u, v);
    }
    let mut csr_build_ms = Vec::new();
    let mut graph = None;
    for _ in 0..3 {
        let t = Instant::now();
        graph = Some(builder.build());
        csr_build_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let graph = graph.expect("built three times");
    let n = graph.num_vertices() as u64;

    let mut rng = SplitMix64::new(seeds.next_u64());
    let pairs = (0..PAIR_POOL)
        .map(|_| (rng.next_below(n) as u32, rng.next_below(n) as u32))
        .collect();

    let mut rng = SplitMix64::new(seeds.next_u64());
    let mut deltas: Vec<EdgeDelta> = Vec::new();
    let touched = |deltas: &[EdgeDelta], u: u32, v: u32| {
        deltas
            .iter()
            .any(|d| (d.u.min(d.v), d.u.max(d.v)) == (u.min(v), u.max(v)))
    };
    for _ in 0..CHURN_CYCLES {
        while deltas.len() % (INSERTS_PER_DELETE + 1) < INSERTS_PER_DELETE {
            let (u, v) = (rng.next_below(n) as u32, rng.next_below(n) as u32);
            if u != v && !graph.has_edge(u, v) && !touched(&deltas, u, v) {
                deltas.push(EdgeDelta::insert(u, v));
            }
        }
        loop {
            let u = rng.next_below(n) as u32;
            let nbrs = graph.neighbors(u);
            if nbrs.is_empty() {
                continue;
            }
            let v = nbrs[rng.next_below(nbrs.len() as u64) as usize];
            if !touched(&deltas, u, v) {
                deltas.push(EdgeDelta::delete(u, v));
                break;
            }
        }
    }
    Inputs {
        edges,
        graph,
        csr_build_ms,
        pairs,
        deltas,
    }
}

fn write_edges(path: &Path, edges: &[(u32, u32)]) -> Result<(), String> {
    let mut out = String::with_capacity(edges.len() * 13);
    for (u, v) in edges {
        let _ = writeln!(out, "{u} {v}");
    }
    std::fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Answers `SAMPLE` pool pairs over one connection, counting missing ones.
fn sample_answers(
    run: &mut Run,
    addr: &str,
    pairs: &[(u32, u32)],
    phase: &str,
) -> Result<Vec<Option<Option<u32>>>, String> {
    let got = proc::query_batch(addr, pairs).map_err(io_err(phase))?;
    let missing = got.iter().filter(|a| a.is_none()).count();
    run.tally
        .count(0, missing, || format!("{phase}: {missing} missing answers"));
    Ok(got)
}

fn compare(run: &mut Run, phase: &str, got: &[Option<Option<u32>>], want: &[Option<u32>]) {
    let wrong = got
        .iter()
        .zip(want)
        .filter(|(g, w)| g.is_some_and(|g| g != **w))
        .count();
    run.tally.count(got.len(), wrong, || {
        format!("{phase}: {wrong} wrong answers")
    });
}

fn run_workload(args: &Args, w: &Workload) -> Result<Run, String> {
    let mut run = Run {
        trace: Trace::new(args.trace),
        tally: Tally::default(),
        e2e: Vec::new(),
        layer: Vec::new(),
        samples: Vec::new(),
        record: Vec::new(),
    };
    let dir = &args.work_dir;
    let hcl = &args.hcl;
    let secs = args.seconds;

    // ---- Inputs and the in-process reference -------------------------
    let inputs = generate(w, args.seed);
    let graph = &inputs.graph;
    let pairs = &inputs.pairs;
    run.note(
        "graph",
        format!(
            "{{\"family\": {}, \"param\": {}, \"vertices\": {}, \"edges\": {}}}",
            json_str(w.family),
            w.param,
            graph.num_vertices(),
            graph.num_edges()
        ),
    );
    let edges_path = dir.join("graph.edges");
    write_edges(&edges_path, &inputs.edges)?;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let options = BuildOptions {
        num_landmarks: LANDMARKS,
        threads,
        batch_size: 0,
        selection: Some(SelectionStrategy::DegreeRank),
    };
    let (index, build_stats) = {
        let (built, build_ms) = run.trace.time("index.build", 0, None, || {
            HighwayCoverIndex::build_with_stats(graph, &options, None)
        });
        run.layer(vec![
            ("core.csr_build_ms", median(&inputs.csr_build_ms)),
            ("index.build_ms", build_ms),
        ]);
        // CPU-bound work of the same size in every run of a workload:
        // how fast the host ran this run, to read the timings against.
        run.note("host_check_index_build_ms", build_ms.to_string());
        built
    };
    let mut ctx = QueryContext::new();
    let expect: Vec<Option<u32>> = pairs
        .iter()
        .map(|&(u, v)| index.query_with(graph, &mut ctx, u, v))
        .collect();
    for (i, &(u, v)) in pairs.iter().take(BFS_CHECKS).enumerate() {
        let oracle = bfs::distance(graph, u, v);
        run.tally.check(oracle == expect[i], || {
            format!("reference index disagrees with BFS on ({u}, {v})")
        });
    }

    // ---- Setup: edge list on disk -> first served answer --------------
    let index_path = dir.join("graph.hcl");
    let (server, addr, setup_s) =
        setup_phase(&mut run, hcl, &edges_path, &index_path, pairs[0], expect[0])?;
    run.e2e("setup_s", median(&setup_s), setup_s.len());
    run.note("setup_s_each", json_list(&setup_s));
    let index_bytes = std::fs::metadata(&index_path)
        .map_err(io_err("index size"))?
        .len();
    run.e2e(
        "index_bytes_per_edge",
        index_bytes as f64 / graph.num_edges() as f64,
        1,
    );
    if run.trace.on() {
        let open = layers::store_open(&mut run.trace, &index_path, 3)?;
        let sources: Vec<u32> = pairs.iter().take(5).map(|p| p.0).collect();
        let bfs = layers::core_bfs(&mut run.trace, graph, &sources);
        let queries = layers::query_engine(&mut run.trace, graph, &index, pairs);
        run.layer(open);
        run.layer(bfs);
        run.layer(queries);
    }

    // ---- stdin batch through the worker pool -------------------------
    let stdin_qps = stdin_phase(&mut run, hcl, &index_path, pairs, &expect, secs * 0.3)?;
    run.reported("stdin_qps", median(&stdin_qps), stdin_qps.len());
    run.note("stdin_qps_each", json_list(&stdin_qps));

    // ---- Read-only open loop at the reference rate -------------------
    let ref_s = secs * 0.5;
    let mut offset = 0;
    let mut phase = |run: &mut Run, name: &'static str, rate: f64, seconds: f64| {
        let r = load::open_loop(&addr, pairs, offset, rate, seconds, None, Some(&expect))
            .map_err(io_err(name))?;
        offset += r.sent;
        run.tally.load(name, &r);
        Ok::<LoadRun, String>(r)
    };
    let (untraced, reference) = if run.trace.on() {
        // Half without spans, half with: the difference is the tracing
        // overhead; the traced half feeds the per-request spans.
        let plain = phase(&mut run, "reference", w.ref_rate, ref_s)?;
        let span = run.trace.begin("load.reference", 0, None);
        let traced = phase(&mut run, "reference", w.ref_rate, ref_s)?;
        run.trace.end(span);
        run.load_spans("query", span, &traced);
        (Some(plain), traced)
    } else {
        (None, phase(&mut run, "reference", w.ref_rate, ref_s)?)
    };
    let lat = sorted(&reference.latency_us);
    if lat.is_empty() {
        return Err("no answers in the reference phase".into());
    }
    run.reported("query_p50_us", quantile(&lat, 0.5), lat.len());
    run.reported("query_p99_us", quantile(&lat, 0.99), lat.len());
    if let Some(plain) = &untraced {
        let exposition = proc::http(&addr, "GET", "/metrics", "")
            .map_err(io_err("/metrics"))?
            .1;
        let q = |label: &str| {
            proc::metric_value(
                &exposition,
                &format!("hcl_latency_us{{quantile=\"{label}\"}}"),
            )
            .ok_or_else(|| format!("/metrics has no {label} latency quantile"))
        };
        let (server_p50, server_p99) = (q("0.5")?, q("0.99")?);
        let plain_p50 = median(&plain.latency_us);
        let engine_p50 = layer_value(&run, "index.query_us_p50");
        run.layer(vec![
            ("serve.server_p50_us", server_p50),
            ("serve.server_p99_us", server_p99),
            ("serve.overhead_us", server_p50 - engine_p50),
            ("serve.transport_us", plain_p50 - server_p50),
            ("gen.lag_us_p99", quantile(&sorted(&plain.lag_us), 0.99)),
            ("trace.overhead_frac", quantile(&lat, 0.5) / plain_p50 - 1.0),
        ]);
    }

    // ---- Rate ladder ------------------------------------------------
    ladder_phase(&mut run, &mut phase, w.ref_rate, secs)?;

    // ---- Churn: live updates under open-loop reads --------------------
    let insert_ack_p50_ms =
        churn_phase(&mut run, &server, &addr, pairs, w.ref_rate, &inputs.deltas)?;
    let rebuilt_graph = {
        let mut overlay = DeltaGraph::new(graph.as_view());
        for &d in &inputs.deltas {
            overlay
                .apply(d)
                .map_err(|e| format!("replaying {d}: {e}"))?;
        }
        overlay.to_graph()
    };
    let rebuilt = HighwayCoverIndex::build_with(&rebuilt_graph, &options);
    let sample = &pairs[..SAMPLE];
    let want: Vec<Option<u32>> = sample
        .iter()
        .map(|&(u, v)| rebuilt.query_with(&rebuilt_graph, &mut ctx, u, v))
        .collect();
    let before_kill = sample_answers(&mut run, &addr, sample, "post-churn sample")?;
    compare(
        &mut run,
        "post-churn sample vs rebuild",
        &before_kill,
        &want,
    );
    let hwm = server
        .vm_hwm_kib()
        .ok_or("cannot read VmHWM of hcl serve")?;
    run.e2e("server_peak_rss_mb", hwm as f64 / 1024.0, 1);
    server.kill();

    // ---- Restart on the post-churn file ------------------------------
    restart_phase(&mut run, hcl, &index_path, sample, &before_kill, &want)?;

    if run.trace.on() {
        let (open, open_ms) = run.trace.time("store.open_journal", 0, None, || {
            hcl_store::IndexStore::open(&index_path)
        });
        let build = open
            .map_err(|e| format!("re-opening the post-churn file: {e}"))?
            .meta()
            .build;
        let replica = layers::replica(
            &mut run.trace,
            graph,
            &index,
            build,
            &inputs.deltas,
            &dir.join("replica.hcl"),
        )?;
        let other = insert_ack_p50_ms - median(&replica.insert_span_sum_ms);
        run.layer(replica.values);
        run.layer(vec![
            ("store.open_journal_ms", open_ms),
            ("serve.update_other_ms", other),
            (
                "index.label_entries",
                index.stats().total_label_entries as f64,
            ),
            ("index.build_bfs_visits", build_stats.bfs_visits as f64),
            ("index.build_dominated", build_stats.dominated as f64),
        ]);
    }
    Ok(run)
}

/// Searches the fixed ladder of open-loop rates above `ref_rate` for the
/// highest rung that meets the latency limit with no growing backlog,
/// and records it as `query_max_rps`: `null` when not even the reference
/// rate does.
fn ladder_phase(
    run: &mut Run,
    phase: &mut impl FnMut(&mut Run, &'static str, f64, f64) -> Result<LoadRun, String>,
    ref_rate: f64,
    secs: f64,
) -> Result<(), String> {
    // Each rung runs `secs / 25` seconds, and at least four windows.
    let rung_s = (secs * 0.04).max(4.0 * stats::WINDOW_S);
    let mut best_rate = None;
    let mut ladder_error = None;
    let ladder_span = run.trace.begin("load.ladder", 0, None);
    let mut rungs = Vec::new();
    let best = stats::search_ladder(LADDER_TOP, |step| {
        let rate = stats::ladder_rate(ref_rate, step);
        // A rung that misses only the latency limit runs once more: a
        // stall of the host can fail one attempt, a saturated server
        // fails both.
        for _ in 0..2 {
            let t = Instant::now();
            let r = match phase(run, "ladder", rate, rung_s) {
                Ok(r) => r,
                Err(e) => {
                    ladder_error.get_or_insert(e);
                    return false;
                }
            };
            run.trace
                .record("load.rung", step as u64, ladder_span, t, Instant::now());
            let p99 = if r.latency_us.is_empty() {
                f64::INFINITY
            } else {
                windowed_p99(&r)
            };
            let pass = r.missing() == 0
                && r.wrong == 0
                && p99 <= LATENCY_LIMIT_US
                && !stats::backlog_growing(&r.latency_us, LATENCY_LIMIT_US / 2.0);
            rungs.push(format!("[{rate:.1}, {p99:.1}, {pass}]"));
            if pass {
                best_rate = Some((step, r.achieved_rate()));
                return true;
            }
            if r.missing() > 0 || r.wrong > 0 {
                return false;
            }
        }
        false
    });
    run.trace.end(ladder_span);
    if let Some(e) = ladder_error {
        return Err(e);
    }
    let max_rps = best_rate.filter(|b| Some(b.0) == best);
    run.note(
        "query_max_rps",
        max_rps.map_or("null".into(), |b| b.1.to_string()),
    );
    run.note(
        "ladder_rungs_rate_p99_pass",
        format!("[{}]", rungs.join(", ")),
    );
    Ok(())
}

/// Serves the post-churn file again after the crash: times the way to
/// the first answer, then checks that the sample answers exactly as
/// before the kill and as the rebuild.
fn restart_phase(
    run: &mut Run,
    hcl: &Path,
    index: &Path,
    sample: &[(u32, u32)],
    before_kill: &[Option<Option<u32>>],
    want: &[Option<u32>],
) -> Result<(), String> {
    let span = run.trace.begin("restart", 0, None);
    let t0 = Instant::now();
    let (restarted, addr) = proc::serve_listen(hcl, index, WORKERS)?;
    let first = proc::query_batch(&addr, &sample[..1]).map_err(io_err("restart query"))?;
    let restart_s = t0.elapsed().as_secs_f64();
    run.trace.end(span);
    run.reported("restart_s", restart_s, 1);
    run.tally.check(first[0] == before_kill[0], || {
        "restart: first answer differs".into()
    });
    let after = sample_answers(run, &addr, sample, "restart sample")?;
    let differ = after
        .iter()
        .zip(before_kill)
        .filter(|(a, b)| a != b)
        .count();
    run.tally.count(after.len(), differ, || {
        format!("restart: {differ} answers differ from before the kill")
    });
    compare(run, "restart sample vs rebuild", &after, want);
    restarted.stop()
}

/// Builds the index with `hcl build` and serves it until the first
/// answer, `SETUP_REPEATS` times. Returns the last server, its address
/// and the time of each setup in s.
fn setup_phase(
    run: &mut Run,
    hcl: &Path,
    edges: &Path,
    index: &Path,
    pair: (u32, u32),
    expect: Option<u32>,
) -> Result<(proc::Served, String, Vec<f64>), String> {
    let build_flags = ["--landmarks".to_string(), LANDMARKS.to_string()];
    let mut setup_s = Vec::new();
    let mut server = None;
    for i in 0..SETUP_REPEATS {
        if let Some((old, _)) = server.take() {
            proc::Served::stop(old)?;
        }
        let id = i as u64;
        let span = run.trace.begin("setup", id, None);
        let t0 = Instant::now();
        let (built, _) = run.trace.time("setup.build", id, span, || {
            proc::build(hcl, edges, index, &build_flags)
        });
        built?;
        let (served, _) = run.trace.time("setup.listen", id, span, || {
            proc::serve_listen(hcl, index, WORKERS)
        });
        let (served, addr) = served?;
        let (first, _) = run.trace.time("setup.first_reply", id, span, || {
            proc::query_batch(&addr, &[pair])
        });
        let first = first.map_err(io_err("setup query"))?;
        setup_s.push(t0.elapsed().as_secs_f64());
        run.trace.end(span);
        run.tally.check(first[0] == Some(expect), || {
            format!("setup {i}: first answer {:?}", first[0])
        });
        server = Some((served, addr));
    }
    let (server, addr) = server.expect("SETUP_REPEATS is at least 1");
    Ok((server, addr, setup_s))
}

fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(f64::to_string).collect();
    format!("[{}]", items.join(", "))
}

/// The p99 the ladder judges: the median over 100 ms windows of the
/// schedule of each window's p99 (see [`stats::windowed_quantile`]).
fn windowed_p99(run: &LoadRun) -> f64 {
    let window = (run.rate * stats::WINDOW_S).round().max(1.0) as usize;
    stats::windowed_quantile(&run.latency_us, window, 0.99)
}

fn layer_value(run: &Run, name: &str) -> f64 {
    run.layer
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(f64::NAN, |v| v.1)
}

/// Streams batches of `STDIN_BATCH` pairs through one `hcl serve
/// --workers 2` on stdin, checking every answer. The first batch warms
/// the process up; every later batch is timed, for `seconds` and at
/// least `STDIN_TIMED` batches. Returns each timed batch's queries/s.
fn stdin_phase(
    run: &mut Run,
    hcl: &Path,
    index: &Path,
    pairs: &[(u32, u32)],
    expect: &[Option<u32>],
    seconds: f64,
) -> Result<Vec<f64>, String> {
    let mut batch = Vec::with_capacity(STDIN_BATCH * 14);
    for i in 0..STDIN_BATCH {
        let (u, v) = pairs[i % pairs.len()];
        let _ = writeln!(batch, "{u} {v}");
    }
    let (served, mut stdin, stdout) = proc::serve_stdin(hcl, index, 2)?;
    let mut lines = BufReader::new(stdout).lines();
    let stop = AtomicBool::new(false);
    let mut qps = Vec::new();
    let (mut read, mut wrong) = (0usize, 0usize);
    let span = run.trace.begin("stdin.batches", 0, None);
    let written = std::thread::scope(|s| {
        let writer = s.spawn(|| -> std::io::Result<usize> {
            let mut batches = 0;
            while !stop.load(Ordering::Acquire) {
                stdin.write_all(&batch)?;
                batches += 1;
            }
            drop(stdin);
            Ok(batches)
        });
        // Reads to EOF: after `stop` the writer finishes its batch and
        // closes stdin, and the server exits once every answer is out.
        let (mut start, mut last) = (None, Instant::now());
        for line in lines.by_ref() {
            let i = read % STDIN_BATCH;
            let ok = line
                .ok()
                .and_then(|l| proc::parse_answer(&l))
                .is_some_and(|(u, v, d)| {
                    (u, v) == pairs[i % pairs.len()] && d == expect[i % pairs.len()]
                });
            wrong += usize::from(!ok);
            read += 1;
            if read % STDIN_BATCH == 0 && !stop.load(Ordering::Relaxed) {
                let now = Instant::now();
                let t0 = *start.get_or_insert(now);
                if now > t0 {
                    qps.push(STDIN_BATCH as f64 / (now - last).as_secs_f64());
                }
                last = now;
                if qps.len() >= STDIN_TIMED && (now - t0).as_secs_f64() >= seconds {
                    stop.store(true, Ordering::Release);
                }
            }
        }
        stop.store(true, Ordering::Release);
        writer.join().expect("stdin writer panicked")
    })
    .map_err(io_err("stdin"))?;
    run.trace.end(span);
    served.stop()?;
    let sent = written * STDIN_BATCH;
    let bad = wrong + sent.saturating_sub(read);
    run.tally.count(sent, bad, || {
        format!("stdin: {bad} wrong or missing of {sent} answers")
    });
    if qps.is_empty() {
        return Err("stdin phase timed no batch".into());
    }
    Ok(qps)
}

/// Open-loop reads at the reference rate while one closed-loop updater
/// sends every delta of the script as its own `POST /update`. Returns
/// the median insert ack in ms.
fn churn_phase(
    run: &mut Run,
    server: &proc::Served,
    addr: &str,
    pairs: &[(u32, u32)],
    rate: f64,
    deltas: &[EdgeDelta],
) -> Result<f64, String> {
    let stop = AtomicBool::new(false);
    let written_before = server
        .write_bytes()
        .ok_or("cannot read /proc io of hcl serve")?;
    let mut insert_ms = Vec::new();
    let mut delete_ms = Vec::new();
    let mut acks = Vec::new();
    let mut applied = 0usize;
    let span = run.trace.begin("load.churn", 0, None);
    let reads = std::thread::scope(|s| {
        let reader = s.spawn(|| load::open_loop(addr, pairs, 0, rate, 170.0, Some(&stop), None));
        let mut updates = || -> Result<(), String> {
            for (i, d) in deltas.iter().enumerate() {
                let t = Instant::now();
                let (status, body) = proc::http(addr, "POST", "/update", &format!("{d}\n"))
                    .map_err(io_err("update"))?;
                let ack = Instant::now();
                let ok = status == 200 && proc::json_number(&body, "applied") == Some(1.0);
                applied += usize::from(ok);
                let probe = proc::http_query(addr, d.u, d.v).map_err(io_err("probe"))?;
                let visible = match d.op {
                    hcl_core::DeltaOp::Insert => probe == Some(Some(1)),
                    hcl_core::DeltaOp::Delete => probe.is_some_and(|p| p != Some(1)),
                };
                acks.push((i, t, ack, Instant::now(), ok && visible, status));
                let ms = (ack - t).as_secs_f64() * 1e3;
                match d.op {
                    hcl_core::DeltaOp::Insert => insert_ms.push(ms),
                    hcl_core::DeltaOp::Delete => delete_ms.push(ms),
                }
            }
            Ok(())
        };
        let result = updates();
        stop.store(true, Ordering::Release);
        let reads = reader.join().expect("churn reader panicked");
        result.map(|()| reads)
    })?;
    let reads = reads.map_err(io_err("churn reads"))?;
    run.trace.end(span);
    for &(i, t, ack, probed, ok, status) in &acks {
        let d = deltas[i];
        run.tally.check(ok, || {
            format!("update {d}: status {status} or not visible after ack")
        });
        let ack_span = run.trace.record("update.ack", i as u64, span, t, ack);
        run.trace
            .record("update.probe", i as u64, ack_span, ack, probed);
    }
    run.tally
        .count(reads.sent, reads.wrong + reads.missing(), || {
            format!(
                "churn reads: {} malformed and {} missing",
                reads.wrong,
                reads.missing()
            )
        });
    run.load_spans("query", span, &reads);
    let written = server
        .write_bytes()
        .ok_or("cannot read /proc io of hcl serve")?
        - written_before;

    let lat = sorted(&reads.latency_us);
    if lat.is_empty() || insert_ms.is_empty() || delete_ms.is_empty() || applied == 0 {
        return Err("churn phase produced no samples".into());
    }
    run.reported("churn_query_p50_us", quantile(&lat, 0.5), lat.len());
    run.reported("churn_query_p99_us", quantile(&lat, 0.99), lat.len());
    run.note("insert_ack_ms_each", json_list(&insert_ms));
    run.note("delete_ack_ms_each", json_list(&delete_ms));
    let insert_p50 = median(&insert_ms);
    run.reported("insert_ack_ms_p50", insert_p50, insert_ms.len());
    let (pct, value) = tail(&insert_ms, TAIL_BEYOND).ok_or("too few inserts for a tail")?;
    run.reported("insert_ack_ms_tail", value, insert_ms.len());
    run.note("insert_ack_ms_tail_percentile", format!("{pct:.2}"));
    run.reported("delete_ack_ms_p50", median(&delete_ms), delete_ms.len());
    run.e2e(
        "disk_write_bytes_per_delta",
        written as f64 / applied as f64,
        applied,
    );
    Ok(insert_p50)
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn metrics_json(table: &[(&str, &str)], values: &[(&'static str, f64)]) -> Result<String, String> {
    let mut out = String::from("{");
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = values
            .iter()
            .find(|(n, _)| n == name)
            .map(|v| v.1)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() || !valid_name(name) {
            return Err(format!("metric {name} = {value} cannot be reported"));
        }
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        );
    }
    out.push('}');
    Ok(out)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let Some(workload) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        eprintln!("error: unknown workload `{}`", args.workload);
        std::process::exit(2);
    };
    let _ = std::fs::remove_dir_all(&args.work_dir);
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("error: creating {}: {e}", args.work_dir.display());
        std::process::exit(1);
    }
    let started = Instant::now();
    let result = run_workload(&args, workload);
    let trace_dir = args.work_dir.with_file_name("perfbench-traces");
    let _ = std::fs::remove_dir_all(&args.work_dir);
    let run = match result {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };

    let mut trace_file = String::from("null");
    if run.trace.on() {
        let path = trace_dir.join(format!("{}-seed{}.jsonl", workload.name, args.seed));
        match std::fs::create_dir_all(&trace_dir).and_then(|()| run.trace.write(&path)) {
            Ok(()) => trace_file = json_str(&path.display().to_string()),
            Err(e) => eprintln!("warning: writing trace {}: {e}", path.display()),
        }
    }
    let metrics = if args.trace {
        metrics_json(&PER_LAYER, &run.layer)
    } else {
        metrics_json(&END_TO_END, &run.e2e)
    };
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };

    let t = &run.tally;
    let correct = t.failed == 0;
    let mut record = String::new();
    let _ = write!(
        record,
        "{{\"record\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"landmarks\": {LANDMARKS}, \"hcl_build_flags\": [\"--landmarks\", \"{LANDMARKS}\"], \
         \"hcl_serve_listen_flags\": [\"--listen\", \"127.0.0.1:0\", \"--workers\", \"{}\"], \
         \"hcl_serve_stdin_flags\": [\"--workers\", \"2\", \"--quiet\"], \
         \"flush_policy\": {}, \"available_parallelism\": {}, \"nproc\": {}, \
         \"rustc\": {}, \"git_commit\": {}, \"wall_s\": {:.3}, \"failed_ops_frac\": {}, \
         \"failures\": [{}], \"trace_file\": {trace_file}",
        json_str(workload.name),
        args.seed,
        args.seconds,
        args.trace,
        WORKERS,
        json_str("every POST /update ack follows a durable publish: temp file fsync, rename, directory fsync"),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_str(&command_line("nproc", &[])),
        json_str(&command_line("rustc", &["--version"])),
        json_str(&command_line("git", &["rev-parse", "HEAD"])),
        started.elapsed().as_secs_f64(),
        t.failed as f64 / t.attempted.max(1) as f64,
        t.notes.iter().map(|n| json_str(n)).collect::<Vec<_>>().join(", "),
    );
    record.push_str(", \"samples\": {");
    for (i, (name, n)) in run.samples.iter().enumerate() {
        let _ = write!(
            record,
            "{}{}: {n}",
            if i > 0 { ", " } else { "" },
            json_str(name)
        );
    }
    record.push('}');
    for (key, json) in &run.record {
        let _ = write!(record, ", {}: {json}", json_str(key));
    }
    record.push_str("}}");
    println!("{record}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        t.attempted.max(1),
        t.failed
    );
    if !correct {
        for note in &t.notes {
            eprintln!("failure: {note}");
        }
        std::process::exit(1);
    }
}
