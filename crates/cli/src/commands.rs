//! Subcommand implementations.

use std::fmt;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use lotus_algos::bbtc::BbtcCounter;
use lotus_algos::edge_iterator::edge_iterator_count_timed;
use lotus_algos::forward::{forward_count_guarded, ForwardCounter};
use lotus_algos::gbbs::gbbs_count_timed;
use lotus_algos::intersect::IntersectKind;
use lotus_analysis::hub_stats::hub_stats;
use lotus_analysis::topology_size::topology_sizes;
use lotus_core::adaptive::{adaptive_count, AdaptiveConfig, ChosenAlgorithm};
use lotus_core::config::{HubCount, LotusConfig};
use lotus_core::count::{CountError, LotusCounter};
use lotus_core::per_vertex::count_per_vertex;
use lotus_core::preprocess::build_lotus_graph;
use lotus_core::resilient::count_with_budget;
use lotus_gen::{BarabasiAlbert, ErdosRenyi, Rmat, RmatParams, WattsStrogatz};
use lotus_graph::{io, EdgeList, GraphStats, ParseWarning, Strictness, UndirectedCsr};
use lotus_resilience::{isolate, Deadline, MemoryBudget, RunGuard};

use crate::args::{
    AnalyzeArgs, AnalyzeGraphArgs, AnalyzeLintArgs, AnalyzeLocksArgs, AnalyzeRaceArgs, BenchArgs,
    BenchCompareArgs, BenchRunArgs, CheckArgs, ClusterShardArgs, ConvertArgs, CountArgs,
    GenerateArgs, LoadgenArgs, QueryArgs, ServeRecoverArgs,
};

/// A command failure: user-facing message plus process exit code.
///
/// Codes follow the conventions documented in [`crate::args::usage`]:
/// 1 runtime error, 2 usage error, 101 isolated worker panic, 124
/// interrupted (timeout(1)'s convention for expired deadlines).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// What went wrong, for stderr.
    pub message: String,
    /// The process exit code.
    pub code: u8,
}

impl CliError {
    /// A runtime failure (exit code 1).
    pub fn runtime(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            code: 1,
        }
    }

    /// A usage error (exit code 2).
    pub fn usage(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            code: 2,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CliError {}

/// Maps a guarded-run failure to its exit code (124 interrupted, 101
/// panic), keeping the partial-progress message.
fn map_count_error(e: &CountError) -> CliError {
    let code = match e {
        CountError::Interrupted { .. } => 124,
        CountError::PhasePanic { .. } => 101,
    };
    CliError {
        message: e.to_string(),
        code,
    }
}

/// Runs `f` with panic isolation: a worker panic becomes exit code 101
/// instead of aborting the process.
fn isolated<T>(f: impl FnOnce() -> T) -> Result<T, CliError> {
    isolate(f).map_err(|p| CliError {
        message: format!("worker panic: {}", p.message),
        code: 101,
    })
}

/// Loads an edge list, selecting the format by extension. Text formats
/// honour `strictness`; the binary format has no warnings (corruption is
/// a hard error via its checksum).
fn load_edges(
    path: &str,
    strictness: Strictness,
) -> Result<(EdgeList, Vec<ParseWarning>), CliError> {
    let el = if path.ends_with(".lotg") {
        io::load_binary(path).map(|edges| (edges, Vec::new()))
    } else {
        io::load_edge_list_text_with(path, strictness).map(|p| (p.edges, p.warnings))
    };
    el.map_err(|e| CliError::runtime(format!("cannot load '{path}': {e}")))
}

/// Loads a graph, selecting the format by extension.
fn load_graph(
    path: &str,
    strictness: Strictness,
) -> Result<(UndirectedCsr, Vec<ParseWarning>), CliError> {
    let (mut el, warnings) = load_edges(path, strictness)?;
    el.canonicalize();
    Ok((UndirectedCsr::from_canonical_edges(&el), warnings))
}

fn write_warnings(out: &mut String, path: &str, warnings: &[ParseWarning]) {
    for w in warnings {
        let _ = writeln!(out, "warning: {path}: {w}");
    }
}

fn lotus_config(hubs: Option<u32>, graph: &UndirectedCsr) -> LotusConfig {
    match hubs {
        Some(n) => LotusConfig::default().with_hub_count(HubCount::Fixed(n)),
        None => LotusConfig::auto(graph),
    }
}

/// `lotus count`.
///
/// # Errors
/// Returns a [`CliError`] when the graph cannot be loaded or the
/// guarded run stops early.
pub fn count(args: CountArgs) -> Result<String, CliError> {
    if let Some(n) = args.threads {
        rayon::configure_threads(n);
    }
    let strictness = if args.strict {
        Strictness::Strict
    } else {
        Strictness::Lenient
    };
    let (graph, warnings) = load_graph(&args.input, strictness)?;
    let mut out = String::new();
    write_warnings(&mut out, &args.input, &warnings);
    let _ = writeln!(out, "{}", GraphStats::of(&graph));

    let mut guard = RunGuard::unlimited();
    if let Some(secs) = args.timeout {
        guard = guard.with_deadline(Deadline::after(Duration::from_secs_f64(secs)));
    }
    let limited = guard.is_limited() || args.mem_budget.is_some();
    if limited && !matches!(args.algorithm.as_str(), "lotus" | "forward") {
        return Err(CliError::usage(
            "--timeout/--mem-budget require --algorithm lotus or forward",
        ));
    }
    if args.mem_budget.is_some() && args.algorithm != "lotus" {
        return Err(CliError::usage("--mem-budget requires --algorithm lotus"));
    }

    let config = lotus_config(args.hubs, &graph);
    let start = Instant::now();
    let (triangles, detail) = match args.algorithm.as_str() {
        "lotus" => {
            // Every LOTUS count takes the budgeted runner: with no limit
            // set, the unlimited budget and guard never degrade or stop it.
            let budget = args
                .mem_budget
                .unwrap_or_else(|| MemoryBudget::from_bytes(u64::MAX));
            let r = count_with_budget(&config, &graph, &budget, &guard)
                .map_err(|e| map_count_error(&e))?;
            if let Some(reason) = r.degraded {
                let _ = writeln!(out, "degraded: {reason}");
            }
            (r.total(), format!("phases: {}", r.result.breakdown))
        }
        "forward" if limited => {
            let total = match isolated(|| forward_count_guarded(&graph, &guard))? {
                Ok(total) => total,
                Err((reason, partial)) => {
                    return Err(CliError {
                        message: format!(
                            "interrupted ({reason}) during forward count; \
                             {partial} triangles counted so far"
                        ),
                        code: 124,
                    })
                }
            };
            (total, String::new())
        }
        "forward" => {
            let r = isolated(|| ForwardCounter::new().count(&graph))?;
            (
                r.triangles,
                format!(
                    "preprocess {:.3}s count {:.3}s",
                    r.preprocess.as_secs_f64(),
                    r.count.as_secs_f64()
                ),
            )
        }
        "edge-iterator" => {
            let r = isolated(|| edge_iterator_count_timed(&graph, IntersectKind::Merge))?;
            (r.triangles, String::new())
        }
        "gbbs" => {
            let r = isolated(|| gbbs_count_timed(&graph))?;
            (r.triangles, String::new())
        }
        "bbtc" => {
            let r = isolated(|| BbtcCounter::default().count(&graph))?;
            (r.triangles, format!("{} tiles", r.tiles))
        }
        "adaptive" => {
            let r = isolated(|| adaptive_count(&graph, &config, &AdaptiveConfig::default()))?;
            let picked = match r.algorithm {
                ChosenAlgorithm::Lotus => "lotus",
                ChosenAlgorithm::Forward => "forward",
            };
            (
                r.triangles,
                format!("dispatched to {picked} (skew {:.2})", r.skew_ratio),
            )
        }
        other => return Err(CliError::usage(format!("unknown algorithm '{other}'"))),
    };
    let elapsed = start.elapsed();
    let _ = writeln!(out, "triangles: {triangles}");
    let _ = writeln!(
        out,
        "time: {:.3}s ({})",
        elapsed.as_secs_f64(),
        args.algorithm
    );
    if !detail.is_empty() {
        let _ = writeln!(out, "{detail}");
    }

    if args.per_vertex {
        let lg = build_lotus_graph(&graph, &config);
        let pv = count_per_vertex(&lg);
        let mut ranked: Vec<(u32, u64)> =
            pv.iter().enumerate().map(|(v, &t)| (v as u32, t)).collect();
        ranked.sort_unstable_by_key(|&(v, t)| (std::cmp::Reverse(t), v));
        let _ = writeln!(out, "top vertices by triangle count:");
        for (v, t) in ranked.into_iter().take(10) {
            let _ = writeln!(out, "  {v}: {t}");
        }
    }
    Ok(out)
}

/// `lotus analyze`: graph analysis or one of the static-analysis gates.
///
/// # Errors
/// Returns a [`CliError`] when input is unreadable, the lint gate
/// finds unwaived violations, or a race scenario fails.
pub fn analyze(args: AnalyzeArgs) -> Result<String, CliError> {
    match args {
        AnalyzeArgs::Graph(a) => analyze_graph(a),
        AnalyzeArgs::Lint(a) => analyze_lint(&a),
        AnalyzeArgs::Race(a) => analyze_race(&a),
        AnalyzeArgs::Locks(a) => analyze_locks(&a),
    }
}

/// `lotus analyze [graph] <path>` — the paper's §3 hub/topology analysis.
fn analyze_graph(args: AnalyzeGraphArgs) -> Result<String, CliError> {
    let (graph, warnings) = load_graph(&args.input, Strictness::Lenient)?;
    let mut out = String::new();
    write_warnings(&mut out, &args.input, &warnings);
    let _ = writeln!(out, "{}", GraphStats::of(&graph));

    let s = hub_stats(&graph, args.hub_fraction);
    let _ = writeln!(
        out,
        "hubs ({} = top {:.1}% by degree):",
        s.hub_count,
        args.hub_fraction * 100.0
    );
    let _ = writeln!(
        out,
        "  hub-to-hub edges:     {:>6.1}%",
        s.hub_to_hub * 100.0
    );
    let _ = writeln!(
        out,
        "  hub-to-non-hub edges: {:>6.1}%",
        s.hub_to_nonhub * 100.0
    );
    let _ = writeln!(out, "  non-hub edges:        {:>6.1}%", s.nonhub * 100.0);
    let _ = writeln!(
        out,
        "  hub triangles:        {:>6.1}%",
        s.hub_triangles * 100.0
    );
    let _ = writeln!(out, "  hub relative density: {:>6.0}x", s.relative_density);
    let _ = writeln!(out, "  fruitless accesses:   {:>6.1}%", s.fruitless * 100.0);

    let lg = build_lotus_graph(&graph, &LotusConfig::auto(&graph));
    let sizes = topology_sizes(&graph, &lg);
    let _ = writeln!(
        out,
        "topology: CSX {} B, LOTUS {} B ({:+.1}%)",
        sizes.csx,
        sizes.lotus,
        sizes.growth_percent()
    );
    Ok(out)
}

/// `lotus analyze lint` — the project-rule source lint gate. Scans the
/// workspace from the current directory, applies the waiver file, and
/// fails (exit 1) on any unwaived finding, mirroring `lotus check`.
/// Stale waivers are reported but gate only under `--deny-stale`.
fn analyze_lint(args: &AnalyzeLintArgs) -> Result<String, CliError> {
    let waiver_path = args
        .waivers
        .as_deref()
        .unwrap_or(lotus_analyzer::DEFAULT_WAIVER_FILE);
    let report = lotus_analyzer::analyze_workspace(Path::new("."), Path::new(waiver_path))
        .map_err(|e| CliError::runtime(e.to_string()))?;
    if let Some(path) = &args.json {
        std::fs::write(path, report.to_json())
            .map_err(|e| CliError::runtime(format!("cannot write '{path}': {e}")))?;
    }
    let rendered = format!("{report}\n");
    let gating = report
        .findings
        .iter()
        .filter(|f| !f.waived && (args.deny_stale || f.rule != "stale-waiver"))
        .count();
    if gating == 0 {
        Ok(rendered)
    } else {
        Err(CliError::runtime(rendered))
    }
}

/// `lotus analyze locks` — the static lock-discipline gate. Builds the
/// cross-crate lock-order graph from the workspace sources, applies the
/// lock-rule waivers, and fails (exit 1) on ordering cycles, blocking
/// calls under a guard, double acquisition, or a planted detector
/// control that fails to fire.
fn analyze_locks(args: &AnalyzeLocksArgs) -> Result<String, CliError> {
    let waiver_path = args
        .waivers
        .as_deref()
        .unwrap_or(lotus_analyzer::DEFAULT_WAIVER_FILE);
    let report = lotus_analyzer::analyze_locks_workspace(Path::new("."), Path::new(waiver_path))
        .map_err(|e| CliError::runtime(e.to_string()))?;
    if let Some(path) = &args.json {
        std::fs::write(path, report.to_json())
            .map_err(|e| CliError::runtime(format!("cannot write '{path}': {e}")))?;
    }
    let rendered = format!("{report}\n");
    if report.is_clean() {
        Ok(rendered)
    } else {
        Err(CliError::runtime(rendered))
    }
}

/// `lotus analyze race` — replays every shipped parallel kernel under
/// seeded deterministic schedules; fails (exit 1) on any shadow-log race
/// or schedule-dependent result.
fn analyze_race(args: &AnalyzeRaceArgs) -> Result<String, CliError> {
    let seeds: &[u64] = if args.seeds.is_empty() {
        &lotus_analyzer::FIXED_SEEDS
    } else {
        &args.seeds
    };
    let suite = lotus_analyzer::run_suite(seeds);
    if let Some(path) = &args.json {
        std::fs::write(path, suite.to_json())
            .map_err(|e| CliError::runtime(format!("cannot write '{path}': {e}")))?;
    }
    let mut out = String::new();
    for o in &suite.outcomes {
        let verdict = if o.is_clean() {
            "ok".to_string()
        } else if o.agrees {
            format!("{} race(s)", o.race.total_races)
        } else {
            "result diverged".to_string()
        };
        let _ = writeln!(
            out,
            "{:<20} seed {:<6} regions {:<4} accesses {:<7} {verdict}",
            o.scenario, o.seed, o.race.regions, o.race.accesses
        );
    }
    for c in &suite.controls {
        if c.flagged() {
            let clocks = c
                .report
                .races
                .first()
                .map(|r| format!("; clocks {} vs {}", r.clock_a, r.clock_b))
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "control {:<20} flagged ({} race(s){clocks})",
                c.name, c.report.total_races
            );
        } else {
            let _ = writeln!(
                out,
                "control {:<20} MISSED — detector failed to fire",
                c.name
            );
        }
    }
    let _ = writeln!(
        out,
        "{} scenario run(s), {} planted control(s), {}",
        suite.outcomes.len(),
        suite.controls.len(),
        if suite.is_clean() {
            "all clean"
        } else {
            "RACES FOUND"
        }
    );
    if suite.is_clean() {
        Ok(out)
    } else {
        Err(CliError::runtime(out))
    }
}

/// `lotus generate`.
///
/// # Errors
/// Returns a [`CliError`] when the output file cannot be written.
pub fn generate(args: GenerateArgs) -> Result<String, CliError> {
    let n = 1u32 << args.scale;
    let edges = match args.kind.as_str() {
        "rmat" => {
            let params = match args.params.as_str() {
                "web" => RmatParams::WEB,
                "mild" => RmatParams::MILD,
                _ => RmatParams::GRAPH500,
            };
            Rmat {
                scale: args.scale,
                edge_factor: args.edge_factor,
                params,
                noise: 0.05,
            }
            .generate_edges(args.seed)
        }
        "ba" => BarabasiAlbert::new(n, args.edge_factor.clamp(1, n - 1)).generate_edges(args.seed),
        "er" => ErdosRenyi::new(n, args.edge_factor as u64 * n as u64).generate_edges(args.seed),
        "ws" => {
            // The ring degree must stay even and below n.
            let k = (args.edge_factor & !1).max(2).min((n - 1) & !1);
            WattsStrogatz::new(n, k, 0.1).generate_edges(args.seed)
        }
        other => return Err(CliError::usage(format!("unknown generator '{other}'"))),
    };
    save_edges(&edges, &args.output)?;
    Ok(format!(
        "wrote {} edges over {} vertices to {}",
        edges.len(),
        edges.num_vertices(),
        args.output
    ))
}

/// `lotus check`: structural validation, LOTUS-structure checks, and the
/// phase-sum cross-check; `--differential` additionally runs every
/// algorithm in the workspace and compares counts. Returns `Err` (nonzero
/// exit) when any violation is found, so it can gate CI.
///
/// # Errors
/// Returns a [`CliError`] when the graph cannot be loaded or any
/// validation rule is violated (nonzero exit for CI).
pub fn check(args: CheckArgs) -> Result<String, CliError> {
    let (graph, warnings) = load_graph(&args.input, Strictness::Lenient)?;
    let mut out = String::new();
    write_warnings(&mut out, &args.input, &warnings);
    let _ = writeln!(out, "{}", GraphStats::of(&graph));
    let mut violations = 0usize;

    let structural = lotus_check::Validator::new().check_undirected(&graph);
    violations += structural.len();
    let _ = writeln!(out, "structural (csr/symmetry/ordering): {structural}");

    let config = lotus_config(args.hubs, &graph);
    let lg = build_lotus_graph(&graph, &config);
    let lotus_report = lotus_check::lotus::check_lotus_graph(&lg);
    violations += lotus_report.len();
    let _ = writeln!(
        out,
        "lotus structure ({} hubs, he/nhe/h2h/relabeling): {lotus_report}",
        lg.hub_count
    );

    let result = LotusCounter::new(config).count_prepared(&lg);
    let reference = ForwardCounter::new().count(&graph).triangles;
    let phase = lotus_check::lotus::check_phase_sum(&result.stats, reference);
    violations += phase.len();
    let _ = writeln!(
        out,
        "phase sum (hhh {} + hhn {} + hnn {} + nnn {} vs forward {reference}): {phase}",
        result.stats.hhh, result.stats.hhn, result.stats.hnn, result.stats.nnn
    );

    if args.differential {
        let diff = lotus_check::differential::run(&graph);
        violations += diff.disagreements.len();
        let _ = writeln!(
            out,
            "differential ({} algorithms): {}",
            diff.runs.len(),
            diff.disagreements
        );
        if let Some(cex) = &diff.counterexample {
            let _ = writeln!(out, "minimized counterexample ({} edges):", cex.len());
            for &(u, v) in cex.pairs() {
                let _ = writeln!(out, "  {u} {v}");
            }
        }
    }

    if violations == 0 {
        let _ = writeln!(out, "ok: no violations");
        Ok(out)
    } else {
        let _ = writeln!(out, "FAILED: {violations} violation(s)");
        Err(CliError::runtime(out))
    }
}

/// `lotus bench`: run a named suite (writing `BENCH.json` with
/// `--json`) or diff two artifacts with `bench compare`.
///
/// # Errors
/// Returns a [`CliError`] when the suite fails, an artifact cannot be
/// read or written, or a compare regresses past tolerance.
pub fn bench(args: BenchArgs) -> Result<String, CliError> {
    match args {
        BenchArgs::Run(run) => bench_run(&run),
        BenchArgs::Compare(cmp) => bench_compare(&cmp),
    }
}

fn bench_run(args: &BenchRunArgs) -> Result<String, CliError> {
    if let Some(n) = args.threads {
        rayon::configure_threads(n);
    }
    let suite = lotus_bench::BenchSuite::by_name(&args.suite).ok_or_else(|| {
        CliError::usage(format!(
            "unknown suite '{}' (expected one of: {})",
            args.suite,
            lotus_bench::BenchSuite::NAMES.join(", ")
        ))
    })?;
    let report = isolated(|| lotus_bench::BenchReport::run_suite(&suite))?;
    let mut out = report.summary();
    if let Some(path) = &args.json {
        std::fs::write(path, report.to_pretty_string())
            .map_err(|e| CliError::runtime(format!("cannot write '{path}': {e}")))?;
        let _ = writeln!(out, "wrote {} run(s) to {path}", report.runs.len());
    }
    Ok(out)
}

/// Gates on the baseline: any hard failure or beyond-tolerance wall-time
/// regression exits nonzero, so CI can call this directly.
fn bench_compare(args: &BenchCompareArgs) -> Result<String, CliError> {
    let load = |path: &str| -> Result<
        (lotus_bench::BenchReport, Option<lotus_bench::ServeSection>),
        CliError,
    > {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::runtime(format!("cannot read '{path}': {e}")))?;
        let report = lotus_bench::BenchReport::parse(&text)
            .map_err(|e| CliError::runtime(format!("'{path}' is not a valid BENCH.json: {e}")))?;
        let serve = lotus_bench::ServeSection::from_document(&text).map_err(|e| {
            CliError::runtime(format!("'{path}' has a malformed serve section: {e}"))
        })?;
        Ok((report, serve))
    };
    let (baseline, baseline_serve) = load(&args.baseline)?;
    let (current, current_serve) = load(&args.current)?;
    let mut cmp = lotus_bench::compare::compare(&baseline, &current, args.tolerance);
    // The serving layer is gated alongside the counting runs: one gate,
    // one exit code (sections absent on both sides are simply skipped).
    cmp.findings.extend(lotus_bench::compare::compare_serve(
        baseline_serve.as_ref(),
        current_serve.as_ref(),
        args.tolerance,
    ));
    let rendered = cmp.to_string();
    if cmp.passed() {
        Ok(rendered)
    } else {
        Err(CliError::runtime(rendered))
    }
}

/// `lotus convert`.
///
/// # Errors
/// Returns a [`CliError`] when either file cannot be read or written
/// or the formats cannot be inferred.
pub fn convert(args: ConvertArgs) -> Result<String, CliError> {
    let strictness = if args.strict {
        Strictness::Strict
    } else {
        Strictness::Lenient
    };
    let (mut el, warnings) = load_edges(&args.input, strictness)?;
    el.canonicalize();
    save_edges(&el, &args.output)?;
    let mut out = String::new();
    write_warnings(&mut out, &args.input, &warnings);
    let _ = writeln!(out, "wrote {} canonical edges to {}", el.len(), args.output);
    Ok(out)
}

/// `lotus serve`: run the graph query daemon until drained.
///
/// Prints `listening on <addr>` (flushed) before blocking, so scripts
/// can poll stdout for the bound ephemeral port.
///
/// # Errors
/// Returns a [`CliError`] when the listener cannot bind or a
/// `--preload` graph fails to build.
pub fn serve(config: lotus_serve::ServeConfig) -> Result<String, CliError> {
    use std::io::Write as _;

    let handle = spawn_daemon(config)?;
    println!("listening on {}", handle.addr());
    let _ = std::io::stdout().flush();
    handle.wait();
    Ok("drained".into())
}

/// Spawns the serve daemon behind `lotus serve` / `lotus cluster
/// shard`, printing the recovery report when the data directory
/// replayed anything.
fn spawn_daemon(config: lotus_serve::ServeConfig) -> Result<lotus_serve::ServerHandle, CliError> {
    // Crash-recovery tests arm fault points in the spawned daemon via
    // LOTUS_FAULT_PLAN; a plain build ignores the variable entirely.
    #[cfg(feature = "fault-injection")]
    lotus_resilience::fault::arm_from_env();

    let handle = lotus_serve::spawn(config).map_err(|e| CliError::runtime(e.to_string()))?;
    if let Some(report) = handle.state().recovery_report() {
        println!(
            "recovered {} graph(s) in {} ms ({} quarantined)",
            report.recovered,
            report.recovery_ms,
            report.quarantined.len()
        );
    }
    Ok(handle)
}

/// `lotus cluster serve`: run the fan-out coordinator until drained.
///
/// Prints `coordinating on <addr>` (flushed) before blocking, mirroring
/// `lotus serve`'s stdout contract so scripts can poll for the port.
///
/// # Errors
/// Returns a [`CliError`] when the listener cannot bind or the
/// shard-map journal cannot be opened.
pub fn cluster_serve(config: lotus_cluster::ClusterConfig) -> Result<String, CliError> {
    use std::io::Write as _;

    let handle = lotus_cluster::spawn(config).map_err(|e| CliError::runtime(e.to_string()))?;
    println!("coordinating on {}", handle.addr());
    let _ = std::io::stdout().flush();
    handle.wait();
    Ok("drained".into())
}

/// `lotus cluster shard`: a full serve daemon that optionally
/// registers itself with a coordinator once its port is bound.
///
/// # Errors
/// Returns a [`CliError`] when the daemon cannot start, the
/// coordinator is unreachable, or it refuses the join.
pub fn cluster_shard(args: ClusterShardArgs) -> Result<String, CliError> {
    use std::io::Write as _;

    use lotus_serve::{Request, Response};

    let handle = spawn_daemon(args.serve)?;
    println!("listening on {}", handle.addr());
    if let Some(coordinator) = &args.coordinator {
        let retry = lotus_resilience::RetryPolicy::serve_default(handle.addr().port().into());
        let reply = lotus_serve::Client::connect_with_retry(coordinator, &retry)
            .map_err(|e| CliError::runtime(format!("connecting to coordinator {coordinator}: {e}")))
            .and_then(|(mut client, _)| {
                client
                    .call(&Request::ShardJoin {
                        addr: handle.addr().to_string(),
                    })
                    .map_err(|e| CliError::runtime(format!("joining {coordinator}: {e}")))
            })?;
        match reply {
            Response::ShardJoined { shards } => {
                println!("joined {coordinator} as one of {shards} shard(s)");
            }
            other => {
                return Err(CliError::runtime(format!(
                    "coordinator {coordinator} refused the join: {other:?}"
                )))
            }
        }
    }
    let _ = std::io::stdout().flush();
    handle.wait();
    Ok("drained".into())
}

/// `lotus serve recover`: replay a daemon data directory offline and
/// print the recovery report as JSON — no daemon is started.
///
/// With `--dry-run` the pass only reports: nothing is quarantined and
/// the journal is left untouched. Exit code 1 signals that damage was
/// found (quarantined files or a torn journal), mirroring the audit
/// commands' exit-code contract.
///
/// # Errors
/// Returns a [`CliError`] when the data directory cannot be read or the
/// report cannot be written.
pub fn serve_recover(args: ServeRecoverArgs) -> Result<String, CliError> {
    let state = lotus_serve::recover(Path::new(&args.data_dir), args.dry_run)
        .map_err(|e| CliError::runtime(format!("recovering '{}': {e}", args.data_dir)))?;
    let rendered = state.report.to_json().pretty();
    if let Some(path) = &args.json {
        std::fs::write(path, &rendered)
            .map_err(|e| CliError::runtime(format!("cannot write '{path}': {e}")))?;
    }
    let damaged = !state.report.quarantined.is_empty() || state.report.journal_damage.is_some();
    if damaged {
        return Err(CliError::runtime(rendered));
    }
    Ok(rendered)
}

/// `lotus query`: issue one request to a running daemon and print the
/// reply as JSON.
///
/// Error replies map onto the shared exit-code contract: deadline or
/// cancellation 124, worker panic 101, bad request 2, everything
/// else 1.
///
/// # Errors
/// Returns a [`CliError`] when the daemon is unreachable, the
/// transport fails, or the daemon answers with an error response.
pub fn query(args: QueryArgs) -> Result<String, CliError> {
    use lotus_serve::{ErrorKind, Response};

    let mut client = lotus_serve::Client::connect(args.addr.as_str())
        .map_err(|e| CliError::runtime(format!("connecting to {}: {e}", args.addr)))?;
    let reply = client
        .call(&args.request)
        .map_err(|e| CliError::runtime(format!("request failed: {e}")))?;
    let rendered = reply.to_json().pretty();
    match reply {
        Response::Error { kind, message } => {
            let code = match kind {
                ErrorKind::DeadlineExpired | ErrorKind::Cancelled => 124,
                ErrorKind::WorkerPanic => 101,
                ErrorKind::BadRequest => 2,
                _ => 1,
            };
            Err(CliError {
                message: format!("{}: {message}\n{rendered}", kind.name()),
                code,
            })
        }
        _ => Ok(rendered),
    }
}

/// `lotus loadgen`: drive a seeded request mix against a running
/// daemon and render the latency report; `--json` writes the
/// BENCH-schema artifact carrying the `serve` section.
///
/// # Errors
/// Returns a [`CliError`] when the daemon is unreachable, the warm-up
/// graph is refused, or the artifact cannot be written.
pub fn loadgen(args: LoadgenArgs) -> Result<String, CliError> {
    let LoadgenArgs {
        mut config,
        suite,
        json,
    } = args;
    // Backoff jitter follows the mix seed so two runs retry identically.
    config.retry = lotus_resilience::RetryPolicy::serve_default(config.seed);
    let report = lotus_serve::loadgen::run(&config).map_err(CliError::runtime)?;
    // One Stats round-trip fills the durability columns; a daemon
    // running without --data-dir legitimately reports all zeros.
    let durability = query_durability_stats(&config.addr, &config.retry);
    let section = lotus_bench::ServeSection {
        suite: suite.clone(),
        graph: config.graph.clone(),
        connections: report.connections as u64,
        requests: report.sent,
        ok: report.ok,
        overloaded: report.overloaded,
        deadline_expired: report.deadline_expired,
        errors: report.errors,
        p50_us: report.percentile_us(50.0),
        p90_us: report.percentile_us(90.0),
        p99_us: report.percentile_us(99.0),
        throughput_rps: report.throughput_rps(),
        wall_ms: report.wall_ms,
        retries: report.retries,
        snapshot_writes: durability.snapshot_writes,
        journal_appends: durability.journal_appends,
        journal_replays: durability.journal_replays,
        quarantined: durability.recovery_quarantined,
        recovery_ms: durability.recovery_ms,
        open_conns: report.open_conns,
        max_sustained_rps: report.max_sustained_rps,
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "loadgen '{suite}' against {}: {} connections x {} requests on {}",
        config.addr, config.connections, config.requests, config.graph
    );
    let _ = writeln!(
        out,
        "sent {} ok {} overloaded {} deadline-expired {} errors {}",
        report.sent, report.ok, report.overloaded, report.deadline_expired, report.errors
    );
    let _ = writeln!(
        out,
        "latency p50 {} us, p90 {} us, p99 {} us; {:.1} req/s over {} ms ({} retries)",
        section.p50_us,
        section.p90_us,
        section.p99_us,
        section.throughput_rps,
        section.wall_ms,
        section.retries,
    );
    let _ = writeln!(
        out,
        "open conns {} (peak), max sustained {:.1} req/s",
        section.open_conns, section.max_sustained_rps,
    );
    if let Some(path) = &json {
        use lotus_telemetry::json::Json;
        // Against a coordinator the section goes under "cluster" with
        // the fleet size; the Stats round-trip reports the fleet as
        // `workers` (DESIGN.md §16).
        let (key, section_json) = if config.cluster {
            let cluster = lotus_bench::ClusterSection {
                shards: u64::from(durability.workers),
                section,
            };
            ("cluster", cluster.to_json())
        } else {
            ("serve", section.to_json())
        };
        let doc = Json::Obj(vec![
            (
                "schema_version".into(),
                Json::Int(lotus_bench::report::SCHEMA_VERSION),
            ),
            ("suite".into(), Json::Str(suite)),
            // An empty runs array keeps the artifact a valid BENCH.json
            // document, so `bench compare` can gate serve-only runs.
            ("runs".into(), Json::Arr(vec![])),
            (key.into(), section_json),
        ]);
        std::fs::write(path, doc.pretty())
            .map_err(|e| CliError::runtime(format!("cannot write '{path}': {e}")))?;
        let _ = writeln!(out, "wrote {key} section to {path}");
    }
    if report.ok == 0 {
        return Err(CliError::runtime(format!("no request succeeded\n{out}")));
    }
    Ok(out)
}

/// Asks the daemon for its durability counters; best-effort — a daemon
/// that vanished mid-teardown just yields zeros rather than failing the
/// whole loadgen run (the latency report is already in hand).
fn query_durability_stats(
    addr: &str,
    retry: &lotus_resilience::RetryPolicy,
) -> lotus_serve::StatsReply {
    use lotus_serve::{Client, Request, Response};

    let reply = Client::connect_with_retry(addr, retry)
        .ok()
        .and_then(|(mut client, _)| client.call(&Request::Stats).ok());
    match reply {
        Some(Response::Stats(stats)) => stats,
        _ => lotus_serve::StatsReply::default(),
    }
}

fn save_edges(el: &EdgeList, path: &str) -> Result<(), CliError> {
    let result = if path.ends_with(".lotg") {
        io::save_binary(el, path)
    } else {
        std::fs::File::create(path)
            .map_err(lotus_graph::GraphError::from)
            .and_then(|f| io::write_edge_list_text(el, f))
    };
    result.map_err(|e| CliError::runtime(format!("cannot write '{path}': {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;
    use lotus_serve::proto::NO_DEADLINE;
    use lotus_serve::Request;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("lotus_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    /// `CountArgs` with every resilience flag off.
    fn count_args(input: String, algorithm: &str, hubs: Option<u32>) -> CountArgs {
        CountArgs {
            input,
            algorithm: algorithm.into(),
            hubs,
            per_vertex: false,
            timeout: None,
            mem_budget: None,
            strict: false,
            threads: None,
        }
    }

    #[test]
    fn generate_count_analyze_pipeline() {
        let path = tmp("pipeline.lotg");
        let msg = generate(GenerateArgs {
            kind: "rmat".into(),
            scale: 9,
            edge_factor: 8,
            seed: 3,
            params: "social".into(),
            output: path.clone(),
        })
        .unwrap();
        assert!(msg.contains("wrote"));

        let out = count(CountArgs {
            per_vertex: true,
            ..count_args(path.clone(), "lotus", None)
        })
        .unwrap();
        assert!(out.contains("triangles:"), "{out}");
        assert!(out.contains("top vertices"), "{out}");

        // All algorithms agree through the CLI path.
        let reference: u64 = extract_triangles(&out);
        for alg in ["forward", "edge-iterator", "gbbs", "bbtc", "adaptive"] {
            let out = count(count_args(path.clone(), alg, Some(64))).unwrap();
            assert_eq!(extract_triangles(&out), reference, "{alg}");
        }

        let out = analyze(AnalyzeArgs::Graph(AnalyzeGraphArgs {
            input: path.clone(),
            hub_fraction: 0.01,
        }))
        .unwrap();
        assert!(out.contains("hub triangles"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn convert_text_to_binary_round_trip() {
        let txt = tmp("conv.el");
        let bin = tmp("conv.lotg");
        std::fs::write(&txt, "0 1\n1 2\n2 0\n").unwrap();
        convert(ConvertArgs {
            input: txt.clone(),
            output: bin.clone(),
            strict: false,
        })
        .unwrap();
        let out = count(count_args(bin.clone(), "forward", None)).unwrap();
        assert_eq!(extract_triangles(&out), 1);
        std::fs::remove_file(&txt).ok();
        std::fs::remove_file(&bin).ok();
    }

    #[test]
    fn check_reports_clean_rmat() {
        let path = tmp("check.lotg");
        generate(GenerateArgs {
            kind: "rmat".into(),
            scale: 8,
            edge_factor: 8,
            seed: 11,
            params: "social".into(),
            output: path.clone(),
        })
        .unwrap();
        let out = check(CheckArgs {
            input: path.clone(),
            hubs: Some(32),
            differential: true,
        })
        .unwrap();
        assert!(out.contains("ok: no violations"), "{out}");
        assert!(out.contains("differential"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn count_rejects_unknown_algorithm() {
        let path = tmp("empty.el");
        std::fs::write(&path, "0 1\n").unwrap();
        let err = count(count_args(path.clone(), "quantum", None)).unwrap_err();
        assert!(err.message.contains("unknown algorithm"));
        assert_eq!(err.code, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let err = count(count_args("/nonexistent/graph.el".into(), "lotus", None)).unwrap_err();
        assert!(err.message.contains("cannot load"));
        assert_eq!(err.code, 1);
    }

    #[test]
    fn zero_timeout_interrupts_with_code_124() {
        let path = tmp("timeout.lotg");
        generate(GenerateArgs {
            kind: "rmat".into(),
            scale: 10,
            edge_factor: 8,
            seed: 5,
            params: "social".into(),
            output: path.clone(),
        })
        .unwrap();
        for alg in ["lotus", "forward"] {
            let err = count(CountArgs {
                timeout: Some(0.0),
                ..count_args(path.clone(), alg, Some(64))
            })
            .unwrap_err();
            assert_eq!(err.code, 124, "{alg}: {}", err.message);
            assert!(
                err.message.contains("interrupted"),
                "{alg}: {}",
                err.message
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn generous_timeout_still_counts() {
        let path = tmp("timeout_ok.el");
        std::fs::write(&path, "0 1\n1 2\n0 2\n").unwrap();
        let out = count(CountArgs {
            timeout: Some(3600.0),
            ..count_args(path.clone(), "lotus", None)
        })
        .unwrap();
        assert_eq!(extract_triangles(&out), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn small_world_keeps_an_even_ring_degree_below_n() {
        // 16 vertices and edge factor 16: the degree clamps to 14, not 15.
        let path = tmp("ws.el");
        let out = generate(GenerateArgs {
            kind: "ws".into(),
            scale: 4,
            edge_factor: 16,
            seed: 1,
            params: "social".into(),
            output: path.clone(),
        })
        .unwrap();
        assert!(out.contains("over 16 vertices"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tiny_mem_budget_degrades_and_stays_correct() {
        let path = tmp("budget.lotg");
        generate(GenerateArgs {
            kind: "rmat".into(),
            scale: 9,
            edge_factor: 8,
            seed: 9,
            params: "social".into(),
            output: path.clone(),
        })
        .unwrap();
        let reference =
            extract_triangles(&count(count_args(path.clone(), "forward", None)).unwrap());
        let out = count(CountArgs {
            mem_budget: Some(MemoryBudget::from_bytes(64)),
            ..count_args(path.clone(), "lotus", Some(256))
        })
        .unwrap();
        assert!(out.contains("degraded:"), "{out}");
        assert_eq!(extract_triangles(&out), reference);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resilience_flags_reject_unsupported_algorithms() {
        let path = tmp("unsupported.el");
        std::fs::write(&path, "0 1\n").unwrap();
        let err = count(CountArgs {
            timeout: Some(1.0),
            ..count_args(path.clone(), "gbbs", None)
        })
        .unwrap_err();
        assert_eq!(err.code, 2);
        let err = count(CountArgs {
            mem_budget: Some(MemoryBudget::from_bytes(1 << 30)),
            ..count_args(path.clone(), "forward", None)
        })
        .unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--mem-budget"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn strict_mode_rejects_trailing_garbage() {
        let path = tmp("garbage.el");
        std::fs::write(&path, "0 1\n1 2 99 extra\n0 2\n").unwrap();
        // Lenient: warns and counts the triangle anyway.
        let out = count(count_args(path.clone(), "lotus", None)).unwrap();
        assert!(out.contains("warning:"), "{out}");
        assert!(out.contains("trailing"), "{out}");
        assert_eq!(extract_triangles(&out), 1);
        // Strict: a hard load error.
        let err = count(CountArgs {
            strict: true,
            ..count_args(path.clone(), "lotus", None)
        })
        .unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("trailing"), "{}", err.message);
        // convert follows the same switch.
        let converted = tmp("garbage.lotg");
        let out = convert(ConvertArgs {
            input: path.clone(),
            output: converted.clone(),
            strict: false,
        })
        .unwrap();
        assert!(out.contains("warning:"), "{out}");
        assert!(convert(ConvertArgs {
            input: path.clone(),
            output: converted.clone(),
            strict: true,
        })
        .is_err());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&converted).ok();
    }

    #[test]
    fn bench_small_suite_writes_and_gates_a_valid_artifact() {
        let json = tmp("bench_small.json");
        // `small` (Tiny scale, 2 algorithms) keeps this test quick.
        let out = bench(BenchArgs::Run(BenchRunArgs {
            suite: "small".into(),
            json: Some(json.clone()),
            threads: None,
        }))
        .unwrap();
        assert!(out.contains("suite 'small'"), "{out}");
        assert!(out.contains("edges/s"), "{out}");

        // The artifact round-trips and self-compares clean at 0 tolerance.
        let report =
            lotus_bench::BenchReport::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
        assert!(!report.runs.is_empty());
        let out = bench(BenchArgs::Compare(BenchCompareArgs {
            baseline: json.clone(),
            current: json.clone(),
            tolerance: 0.0,
        }))
        .unwrap();
        assert!(out.contains("result: PASS"), "{out}");

        // An injected beyond-tolerance regression fails with exit code 1.
        let mut slow = report.clone();
        for run in &mut slow.runs {
            run.wall_ms *= 2.0;
        }
        let slow_path = tmp("bench_small_slow.json");
        std::fs::write(&slow_path, slow.to_pretty_string()).unwrap();
        let err = bench(BenchArgs::Compare(BenchCompareArgs {
            baseline: json.clone(),
            current: slow_path.clone(),
            tolerance: 0.25,
        }))
        .unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("REGRESSION"), "{}", err.message);

        // A triangle-count change fails even at huge tolerance.
        let mut wrong = report;
        wrong.runs[0].triangles += 1;
        std::fs::write(&slow_path, wrong.to_pretty_string()).unwrap();
        let err = bench(BenchArgs::Compare(BenchCompareArgs {
            baseline: json.clone(),
            current: slow_path.clone(),
            tolerance: 100.0,
        }))
        .unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("triangle count"), "{}", err.message);

        std::fs::remove_file(&json).ok();
        std::fs::remove_file(&slow_path).ok();
    }

    #[test]
    fn bench_rejects_unknown_suite_and_bad_artifacts() {
        let err = bench(BenchArgs::Run(BenchRunArgs {
            suite: "nope".into(),
            json: None,
            threads: None,
        }))
        .unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("unknown suite"), "{}", err.message);

        let err = bench(BenchArgs::Compare(BenchCompareArgs {
            baseline: "/nonexistent/base.json".into(),
            current: "/nonexistent/cur.json".into(),
            tolerance: 0.25,
        }))
        .unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("cannot read"), "{}", err.message);

        let bad = tmp("bench_bad.json");
        std::fs::write(&bad, "{\"schema_version\": 99}").unwrap();
        let err = bench(BenchArgs::Compare(BenchCompareArgs {
            baseline: bad.clone(),
            current: bad.clone(),
            tolerance: 0.25,
        }))
        .unwrap_err();
        assert_eq!(err.code, 1);
        assert!(
            err.message.contains("not a valid BENCH.json"),
            "{}",
            err.message
        );
        std::fs::remove_file(&bad).ok();
    }

    #[test]
    fn query_and_loadgen_against_in_process_daemon() {
        let handle = lotus_serve::spawn(lotus_serve::ServeConfig::default()).unwrap();
        let addr = handle.addr().to_string();

        let out = query(QueryArgs {
            addr: addr.clone(),
            request: Request::Ping,
        })
        .unwrap();
        assert!(out.contains("pong"), "{out}");

        let out = query(QueryArgs {
            addr: addr.clone(),
            request: Request::LoadGraph {
                name: "g".into(),
                spec: "rmat:7:8:5".into(),
            },
        })
        .unwrap();
        assert!(out.contains("loaded"), "{out}");
        let out = query(QueryArgs {
            addr: addr.clone(),
            request: Request::Count {
                name: "g".into(),
                deadline_ms: NO_DEADLINE,
            },
        })
        .unwrap();
        assert!(out.contains("triangles"), "{out}");

        // A 0 ms deadline maps onto the interrupted exit code.
        let err = query(QueryArgs {
            addr: addr.clone(),
            request: Request::Count {
                name: "g".into(),
                deadline_ms: 0,
            },
        })
        .unwrap_err();
        assert_eq!(err.code, 124, "{}", err.message);
        // An unknown graph is a runtime error.
        let err = query(QueryArgs {
            addr: addr.clone(),
            request: Request::Count {
                name: "missing".into(),
                deadline_ms: NO_DEADLINE,
            },
        })
        .unwrap_err();
        assert_eq!(err.code, 1, "{}", err.message);

        // A tiny loadgen run writes a parseable serve section.
        let json = tmp("loadgen.json");
        let out = loadgen(LoadgenArgs {
            config: lotus_serve::LoadgenConfig {
                connections: 2,
                requests: 5,
                seed: 7,
                graph: "rmat:7:8:5".into(),
                pipeline: 2,
                cluster: false,
                ..lotus_serve::LoadgenConfig::ci_suite(&addr)
            },
            suite: "custom".into(),
            json: Some(json.clone()),
        })
        .unwrap();
        assert!(out.contains("latency p50"), "{out}");
        let section =
            lotus_bench::ServeSection::from_document(&std::fs::read_to_string(&json).unwrap())
                .unwrap()
                .expect("serve section");
        assert_eq!(section.suite, "custom");
        assert_eq!(section.requests, 10);
        assert_eq!(section.ok + section.overloaded + section.errors, 10);
        assert_eq!(section.open_conns, 2);
        assert!(section.max_sustained_rps > 0.0);
        // The artifact is a full BENCH.json document and self-compares
        // clean at zero tolerance — exactly what the serve-load CI gate
        // runs against the checked-in serve baseline.
        lotus_bench::BenchReport::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
        let out = bench(BenchArgs::Compare(BenchCompareArgs {
            baseline: json.clone(),
            current: json.clone(),
            tolerance: 0.0,
        }))
        .unwrap();
        assert!(out.contains("result: PASS"), "{out}");
        std::fs::remove_file(&json).ok();

        // Drain through the client path shuts the daemon down.
        let out = query(QueryArgs {
            addr,
            request: Request::Drain,
        })
        .unwrap();
        assert!(out.contains("draining"), "{out}");
        handle.wait();
    }

    #[test]
    fn cluster_query_and_loadgen_against_in_process_fleet() {
        let shard = |n| {
            lotus_serve::spawn(lotus_serve::ServeConfig {
                workers: n,
                queue_capacity: 16,
                ..lotus_serve::ServeConfig::default()
            })
            .unwrap()
        };
        let shards = [shard(2), shard(2)];
        let extra = shard(2);
        let coordinator = lotus_cluster::spawn(lotus_cluster::ClusterConfig {
            shards: shards.iter().map(|s| s.addr().to_string()).collect(),
            ..lotus_cluster::ClusterConfig::default()
        })
        .unwrap();
        let addr = coordinator.addr().to_string();

        // `query join` grows the fleet through the one-shot client.
        let out = query(QueryArgs {
            addr: addr.clone(),
            request: Request::ShardJoin {
                addr: extra.addr().to_string(),
            },
        })
        .unwrap();
        assert!(out.contains("\"shards\": 3"), "{out}");

        // A cluster loadgen run writes a parseable cluster section with
        // the fleet size, beside no serve section at all.
        let json = tmp("loadgen_cluster.json");
        let out = loadgen(LoadgenArgs {
            config: lotus_serve::LoadgenConfig {
                connections: 2,
                requests: 5,
                seed: 7,
                graph: "rmat:7:8:5".into(),
                pipeline: 2,
                cluster: true,
                ..lotus_serve::LoadgenConfig::ci_suite(&addr)
            },
            suite: "custom".into(),
            json: Some(json.clone()),
        })
        .unwrap();
        assert!(out.contains("wrote cluster section"), "{out}");
        let text = std::fs::read_to_string(&json).unwrap();
        let section = lotus_bench::ClusterSection::from_document(&text)
            .unwrap()
            .expect("cluster section");
        assert_eq!(section.shards, 3);
        assert_eq!(section.section.requests, 10);
        assert_eq!(section.section.errors, 0, "{text}");
        assert_eq!(lotus_bench::ServeSection::from_document(&text), Ok(None));
        std::fs::remove_file(&json).ok();

        // `query shard-stat` aggregates fleet occupancy (the loadgen
        // warm-up graph is still placed).
        let out = query(QueryArgs {
            addr,
            request: Request::ShardStat,
        })
        .unwrap();
        assert!(out.contains("\"shard_graphs\": 1"), "{out}");

        coordinator.shutdown();
        for s in shards {
            s.shutdown();
        }
        extra.shutdown();
    }

    #[test]
    fn end_to_end_through_parser() {
        let path = tmp("e2e.el");
        std::fs::write(&path, "0 1\n1 2\n0 2\n2 3\n").unwrap();
        let cmd = parse(&["count", &path]).unwrap();
        let out = crate::run(cmd).unwrap();
        assert!(out.contains("triangles: 1"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    fn extract_triangles(out: &str) -> u64 {
        out.lines()
            .find_map(|l| l.strip_prefix("triangles: "))
            .expect("triangles line")
            .trim()
            .parse()
            .expect("number")
    }
}
