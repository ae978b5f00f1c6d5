//! Hand-rolled argument parsing (no external CLI dependency).

use std::fmt;

use lotus_resilience::MemoryBudget;
use lotus_serve::proto::NO_DEADLINE;
use lotus_serve::Request;

/// Usage text shown by `lotus help`.
pub const USAGE: &str = "\
lotus — locality-optimizing triangle counting (PPoPP'22 reproduction)

USAGE:
  lotus count <graph> [--algorithm lotus|forward|edge-iterator|gbbs|bbtc|adaptive]
                      [--hubs N] [--per-vertex] [--timeout SECS]
                      [--mem-budget SIZE] [--strict] [--threads N]
  lotus analyze [graph] <graph> [--hub-fraction F]
  lotus analyze lint [--waivers FILE] [--json FILE] [--deny-stale]
  lotus analyze race [--seeds A,B,C] [--json FILE]
  lotus analyze locks [--waivers FILE] [--json FILE]
  lotus generate <rmat|ba|er|ws> --scale S [--edge-factor F] [--seed X]
                 [--params social|web|mild] -o <file>
  lotus convert <input> <output> [--strict]
  lotus check <graph> [--hubs N] [--differential]
  lotus bench [--suite ci|small|full] [--json FILE] [--threads N]
  lotus bench compare <baseline.json> <current.json> [--tolerance F]
  lotus serve [--bind ADDR] [--port P] [--workers N] [--queue N]
              [--mem-budget SIZE] [--preload NAME=SPEC]...
              [--data-dir DIR] [--snapshot-interval SECS]
              [--event-threads N] [--max-conns N]
  lotus serve recover <data-dir> [--dry-run] [--json FILE]
  lotus cluster serve [--bind ADDR] [--port P] [--shard ADDR]...
                      [--data-dir DIR] [--deadline-ms MS]
                      [--allow-partial] [--retry-seed S]
  lotus cluster shard [serve flags] [--coordinator ADDR]
  lotus cluster query <addr> <action> (alias of lotus query)
  lotus query <addr> <ping|stats|drain|count NAME|per-vertex NAME
              [--range A..B]|kclique NAME K|load NAME SPEC|evict NAME
              |shard-stat|join ADDR> [--deadline-ms MS]
  lotus loadgen <addr> [--suite ci] [--connections N] [--requests M]
                [--seed S] [--graph SPEC] [--json FILE] [--pipeline P]
                [--cluster]
  lotus help

Graph files: whitespace edge lists (any extension) or binary .lotg files.
--timeout interrupts the run cooperatively (exit code 124); --mem-budget
(e.g. 512m, 2g) degrades LOTUS to fit; --strict rejects text edge lists
with trailing garbage tokens instead of warning. --threads pins the
counting pool size (default: one worker per core).

bench runs a named dataset x algorithm suite (default ci) and, with
--json, writes the machine-readable BENCH.json artifact (schema v1,
documented in EXPERIMENTS.md). bench compare diffs two artifacts and
fails (exit 1) on triangle-count changes, missing runs, wall-time
regressions beyond --tolerance (fractional, default 0.25 = +25%), or a
changed exact work counter (both artifacts with telemetry).
Builds without `--features telemetry` report all work counters as 0.

serve with --data-dir persists registered graphs (snapshots plus a
write-ahead manifest journal) and replays them on restart, quarantining
any torn or corrupt file instead of refusing to start;
--snapshot-interval bounds how often the journal is compacted. serve
recover replays a data directory offline and prints the recovery
report as JSON without starting a daemon (--dry-run also skips
quarantining and compaction).

serve multiplexes connections over a small set of readiness event
loops: --event-threads sizes the loop set (default: cores/4, max 4)
and --max-conns caps concurrently open connections (default 4096,
excess is refused with a structured Overloaded frame). loadgen drives
all connections through one multiplexed event loop; --pipeline keeps P
requests in flight per connection (default 1).

cluster serve runs the fan-out coordinator (DESIGN.md §16): it fronts
the shard daemons named by repeatable --shard flags (more can join at
runtime via `lotus query <coordinator> join ADDR`), speaks the same
LSRV protocol as serve, and answers Count/PerVertex by summing exact
per-shard counts. --data-dir journals the shard map so a restarted
coordinator reconverges; --deadline-ms caps fan-out when a request
carries no deadline; --allow-partial degrades to a partial sum
(marked uncached) instead of failing when a shard is down. cluster
shard is serve plus an optional --coordinator ADDR to self-register
after binding. query shard-stat aggregates shard occupancy; query
join registers a shard endpoint with a coordinator. loadgen --cluster
drives a coordinator with a shard-safe mix (no k-clique, which
cluster mode rejects) and writes the BENCH artifact section under
\"cluster\" instead of \"serve\".

analyze lint runs the project-rule source lint over the workspace
(run from the repo root) against the checked-in waiver file; stale
waivers are reported but only fail the gate under --deny-stale.
analyze race replays every parallel kernel under seeded deterministic
schedules and fails on shadow-log races or order-dependent results.
analyze locks builds the static cross-crate lock-order graph and
fails on ordering cycles (ABBA candidates), blocking calls under a
live guard, double acquisition, or a planted control that does not
fire. All three gates share `lotus check`'s exit-code contract:
0 clean, 1 violations found, 2 usage error.

Exit codes: 0 success (including degraded runs), 1 runtime error or
violations found, 2 usage error, 101 isolated worker panic,
124 interrupted.";

/// A parsed subcommand.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `lotus count`.
    Count(CountArgs),
    /// `lotus analyze`.
    Analyze(AnalyzeArgs),
    /// `lotus generate`.
    Generate(GenerateArgs),
    /// `lotus convert`.
    Convert(ConvertArgs),
    /// `lotus check`.
    Check(CheckArgs),
    /// `lotus bench` (suite run or `compare`).
    Bench(BenchArgs),
    /// `lotus serve`.
    Serve(ServeCliArgs),
    /// `lotus serve recover`: offline durability-state inspection.
    ServeRecover(ServeRecoverArgs),
    /// `lotus cluster serve`: the fan-out coordinator daemon.
    ClusterServe(ClusterServeArgs),
    /// `lotus cluster shard`: a shard daemon, optionally self-registering.
    ClusterShard(ClusterShardArgs),
    /// `lotus query`.
    Query(QueryArgs),
    /// `lotus loadgen`.
    Loadgen(LoadgenCliArgs),
    /// `lotus help`.
    Help,
}

/// Arguments of `lotus serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeCliArgs {
    /// Bind address (default `127.0.0.1`).
    pub bind: String,
    /// TCP port; 0 picks an ephemeral port.
    pub port: u16,
    /// Worker threads; 0 means one per core.
    pub workers: usize,
    /// Queue capacity; 0 means 4x workers.
    pub queue: usize,
    /// Registry memory budget (default 512m).
    pub mem_budget: Option<MemoryBudget>,
    /// Graphs to build before accepting connections (`--preload NAME=SPEC`).
    pub preload: Vec<(String, String)>,
    /// Durability directory (`--data-dir`); `None` = in-memory only.
    pub data_dir: Option<String>,
    /// Seconds between journal checkpoints (`--snapshot-interval`);
    /// `None` = checkpoint only at shutdown.
    pub snapshot_interval_secs: Option<u64>,
    /// Event-loop threads (`--event-threads`); 0 means cores/4 (max 4).
    pub event_threads: usize,
    /// Open-connection cap (`--max-conns`); 0 means 4096.
    pub max_conns: usize,
}

/// Arguments of `lotus cluster serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterServeArgs {
    /// Bind address (default `127.0.0.1`).
    pub bind: String,
    /// TCP port; 0 picks an ephemeral port.
    pub port: u16,
    /// Shard daemon endpoints to join at startup (`--shard ADDR`, repeatable).
    pub shards: Vec<String>,
    /// Shard-map journal directory (`--data-dir`); `None` = in-memory only.
    pub data_dir: Option<String>,
    /// Fan-out deadline for requests that carry none (`--deadline-ms`).
    pub deadline_ms: Option<u64>,
    /// Degrade to partial sums instead of failing when a shard is down.
    pub allow_partial: bool,
    /// Seed for the shard-dial retry backoff (`--retry-seed`).
    pub retry_seed: Option<u64>,
}

/// Arguments of `lotus cluster shard`: a full serve daemon plus an
/// optional coordinator to self-register with once bound.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterShardArgs {
    /// The underlying daemon configuration (same flags as `lotus serve`).
    pub serve: ServeCliArgs,
    /// Coordinator address to send `ShardJoin` to (`--coordinator`).
    pub coordinator: Option<String>,
}

/// Arguments of `lotus serve recover`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRecoverArgs {
    /// The daemon data directory to replay.
    pub data_dir: String,
    /// Report only: quarantine nothing, compact nothing.
    pub dry_run: bool,
    /// Where to write the recovery report JSON, if anywhere.
    pub json: Option<String>,
}

/// Arguments of `lotus query`: target address plus the one request it
/// sends, with `--deadline-ms` and `--range` already applied.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryArgs {
    /// Daemon address (`host:port`).
    pub addr: String,
    /// What to ask the daemon.
    pub request: Request,
}

/// Arguments of `lotus loadgen`.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenCliArgs {
    /// Daemon address (`host:port`).
    pub addr: String,
    /// Named suite preset (`ci`), if any.
    pub suite: Option<String>,
    /// Concurrent connections (default 4).
    pub connections: Option<usize>,
    /// Requests per connection (default 50).
    pub requests: Option<usize>,
    /// Mix seed (default 42).
    pub seed: Option<u64>,
    /// Graph spec the run warms and queries (default `rmat:9:8:7`).
    pub graph: Option<String>,
    /// Per-request deadline in milliseconds, if any.
    pub deadline_ms: Option<u64>,
    /// Where to write the BENCH-schema `serve` artifact, if anywhere.
    pub json: Option<String>,
    /// In-flight requests per connection (`--pipeline`, default 1).
    pub pipeline: Option<usize>,
    /// Target is a cluster coordinator (`--cluster`): use the
    /// shard-safe request mix and write the `cluster` artifact section.
    pub cluster: bool,
}

/// Arguments of `lotus bench`.
#[derive(Debug, Clone, PartialEq)]
pub enum BenchArgs {
    /// Run a named suite, optionally writing `BENCH.json`.
    Run(BenchRunArgs),
    /// Diff two `BENCH.json` artifacts and gate on regressions.
    Compare(BenchCompareArgs),
}

/// Arguments of a `lotus bench` suite run.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRunArgs {
    /// Suite name (`ci`, `small`, `full`).
    pub suite: String,
    /// Where to write the `BENCH.json` artifact, if anywhere.
    pub json: Option<String>,
    /// Thread-pool size override (`--threads`); `None` = one per core.
    pub threads: Option<usize>,
}

/// Arguments of `lotus bench compare`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchCompareArgs {
    /// Baseline artifact path.
    pub baseline: String,
    /// Current artifact path.
    pub current: String,
    /// Fractional wall-time tolerance (0.25 = +25%).
    pub tolerance: f64,
}

/// Arguments of `lotus count`.
#[derive(Debug, Clone, PartialEq)]
pub struct CountArgs {
    /// Input graph path.
    pub input: String,
    /// Algorithm name (default `lotus`).
    pub algorithm: String,
    /// Optional fixed hub count.
    pub hubs: Option<u32>,
    /// Also print the 10 vertices with most triangles.
    pub per_vertex: bool,
    /// Cooperative deadline in seconds (`--timeout`).
    pub timeout: Option<f64>,
    /// Memory budget for the counting structures (`--mem-budget`).
    pub mem_budget: Option<MemoryBudget>,
    /// Reject (rather than warn about) malformed edge-list lines.
    pub strict: bool,
    /// Thread-pool size override (`--threads`); `None` = one per core.
    pub threads: Option<usize>,
}

/// Arguments of `lotus analyze`: a graph analysis or one of the two
/// static-analysis gates.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalyzeArgs {
    /// `lotus analyze [graph] <path>` — the §3 hub/topology analysis.
    Graph(AnalyzeGraphArgs),
    /// `lotus analyze lint` — the project-rule source lint gate.
    Lint(AnalyzeLintArgs),
    /// `lotus analyze race` — the deterministic-schedule race checker.
    Race(AnalyzeRaceArgs),
    /// `lotus analyze locks` — the static lock-discipline gate.
    Locks(AnalyzeLocksArgs),
}

/// Arguments of `lotus analyze [graph] <path>`.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeGraphArgs {
    /// Input graph path.
    pub input: String,
    /// Hub fraction for the §3 analysis (default 0.01).
    pub hub_fraction: f64,
}

/// Arguments of `lotus analyze lint`.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeLintArgs {
    /// Waiver file path (default `analyzer-waivers.json`).
    pub waivers: Option<String>,
    /// Where to write the JSON diagnostics artifact, if anywhere.
    pub json: Option<String>,
    /// Fail (exit 1) on stale waivers instead of just reporting them.
    pub deny_stale: bool,
}

/// Arguments of `lotus analyze locks`.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeLocksArgs {
    /// Waiver file path (default `analyzer-waivers.json`).
    pub waivers: Option<String>,
    /// Where to write the JSON lock-graph artifact, if anywhere.
    pub json: Option<String>,
}

/// Arguments of `lotus analyze race`.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeRaceArgs {
    /// Schedule seeds (`--seeds 7,42,3` — empty means the fixed CI set).
    pub seeds: Vec<u64>,
    /// Where to write the JSON report artifact, if anywhere.
    pub json: Option<String>,
}

/// Arguments of `lotus generate`.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerateArgs {
    /// Generator kind: `rmat`, `ba`, `er`, `ws`.
    pub kind: String,
    /// log2 vertex count.
    pub scale: u32,
    /// Edges per vertex (default 16).
    pub edge_factor: u32,
    /// Seed (default 42).
    pub seed: u64,
    /// R-MAT parameter preset.
    pub params: String,
    /// Output path.
    pub output: String,
}

/// Arguments of `lotus convert`.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvertArgs {
    /// Input path.
    pub input: String,
    /// Output path.
    pub output: String,
    /// Reject (rather than warn about) malformed edge-list lines.
    pub strict: bool,
}

/// Arguments of `lotus check`.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckArgs {
    /// Input graph path.
    pub input: String,
    /// Optional fixed hub count for the LOTUS structure checks.
    pub hubs: Option<u32>,
    /// Also run the full differential oracle (every algorithm).
    pub differential: bool,
}

/// Parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}\n\n{USAGE}", self.0)
    }
}

fn take_value<'a>(
    flag: &str,
    it: &mut impl Iterator<Item = &'a str>,
) -> Result<String, ParseError> {
    it.next()
        .map(str::to_string)
        .ok_or_else(|| ParseError(format!("{flag} requires a value")))
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, ParseError> {
    value
        .parse()
        .map_err(|_| ParseError(format!("invalid value '{value}' for {flag}")))
}

fn parse_threads<'a>(it: &mut impl Iterator<Item = &'a str>) -> Result<usize, ParseError> {
    let n: usize = parse_num("--threads", &take_value("--threads", it)?)?;
    if n == 0 {
        return Err(ParseError("--threads must be at least 1".into()));
    }
    Ok(n)
}

/// Parses an argument vector (without the program name).
///
/// # Errors
/// Returns a [`ParseError`] naming the first unknown command, unknown
/// flag, or invalid value.
pub fn parse(argv: &[&str]) -> Result<Command, ParseError> {
    let mut it = argv.iter().copied();
    let sub = it
        .next()
        .ok_or_else(|| ParseError("missing subcommand".into()))?;
    match sub {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "count" => {
            let mut input = None;
            let mut algorithm = "lotus".to_string();
            let mut hubs = None;
            let mut per_vertex = false;
            let mut timeout = None;
            let mut mem_budget = None;
            let mut strict = false;
            let mut threads = None;
            while let Some(arg) = it.next() {
                match arg {
                    "--algorithm" | "-a" => algorithm = take_value(arg, &mut it)?,
                    "--threads" => threads = Some(parse_threads(&mut it)?),
                    "--hubs" => hubs = Some(parse_num(arg, &take_value(arg, &mut it)?)?),
                    "--per-vertex" => per_vertex = true,
                    "--timeout" => {
                        let secs: f64 = parse_num(arg, &take_value(arg, &mut it)?)?;
                        if !(secs.is_finite() && secs >= 0.0) {
                            return Err(ParseError(
                                "--timeout must be a non-negative number of seconds".into(),
                            ));
                        }
                        timeout = Some(secs);
                    }
                    "--mem-budget" => {
                        let value = take_value(arg, &mut it)?;
                        mem_budget = Some(
                            MemoryBudget::parse(&value)
                                .map_err(|e| ParseError(format!("--mem-budget: {e}")))?,
                        );
                    }
                    "--strict" => strict = true,
                    _ if input.is_none() && !arg.starts_with('-') => {
                        input = Some(arg.to_string());
                    }
                    _ => return Err(ParseError(format!("unexpected argument '{arg}'"))),
                }
            }
            let input = input.ok_or_else(|| ParseError("count: missing graph path".into()))?;
            Ok(Command::Count(CountArgs {
                input,
                algorithm,
                hubs,
                per_vertex,
                timeout,
                mem_budget,
                strict,
                threads,
            }))
        }
        "analyze" => {
            let rest: Vec<&str> = it.collect();
            match rest.first().copied() {
                Some("lint") => {
                    let mut waivers = None;
                    let mut json = None;
                    let mut deny_stale = false;
                    let mut it = rest[1..].iter().copied();
                    while let Some(arg) = it.next() {
                        match arg {
                            "--waivers" | "-w" => waivers = Some(take_value(arg, &mut it)?),
                            "--json" | "-j" => json = Some(take_value(arg, &mut it)?),
                            "--deny-stale" => deny_stale = true,
                            _ => return Err(ParseError(format!("unexpected argument '{arg}'"))),
                        }
                    }
                    Ok(Command::Analyze(AnalyzeArgs::Lint(AnalyzeLintArgs {
                        waivers,
                        json,
                        deny_stale,
                    })))
                }
                Some("locks") => {
                    let mut waivers = None;
                    let mut json = None;
                    let mut it = rest[1..].iter().copied();
                    while let Some(arg) = it.next() {
                        match arg {
                            "--waivers" | "-w" => waivers = Some(take_value(arg, &mut it)?),
                            "--json" | "-j" => json = Some(take_value(arg, &mut it)?),
                            _ => return Err(ParseError(format!("unexpected argument '{arg}'"))),
                        }
                    }
                    Ok(Command::Analyze(AnalyzeArgs::Locks(AnalyzeLocksArgs {
                        waivers,
                        json,
                    })))
                }
                Some("race") => {
                    let mut seeds = Vec::new();
                    let mut json = None;
                    let mut it = rest[1..].iter().copied();
                    while let Some(arg) = it.next() {
                        match arg {
                            "--seeds" | "-s" => {
                                let value = take_value(arg, &mut it)?;
                                for part in value.split(',') {
                                    seeds.push(parse_num(arg, part.trim())?);
                                }
                            }
                            "--json" | "-j" => json = Some(take_value(arg, &mut it)?),
                            _ => return Err(ParseError(format!("unexpected argument '{arg}'"))),
                        }
                    }
                    Ok(Command::Analyze(AnalyzeArgs::Race(AnalyzeRaceArgs {
                        seeds,
                        json,
                    })))
                }
                _ => {
                    // Bare `analyze <path>` keeps working; `analyze graph
                    // <path>` is the explicit spelling.
                    let args = if rest.first() == Some(&"graph") {
                        &rest[1..]
                    } else {
                        &rest[..]
                    };
                    let mut input = None;
                    let mut hub_fraction = 0.01f64;
                    let mut it = args.iter().copied();
                    while let Some(arg) = it.next() {
                        match arg {
                            "--hub-fraction" => {
                                hub_fraction = parse_num(arg, &take_value(arg, &mut it)?)?;
                            }
                            _ if input.is_none() && !arg.starts_with('-') => {
                                input = Some(arg.to_string());
                            }
                            _ => return Err(ParseError(format!("unexpected argument '{arg}'"))),
                        }
                    }
                    let input =
                        input.ok_or_else(|| ParseError("analyze: missing graph path".into()))?;
                    if !(hub_fraction > 0.0 && hub_fraction <= 1.0) {
                        return Err(ParseError("--hub-fraction must be in (0, 1]".into()));
                    }
                    Ok(Command::Analyze(AnalyzeArgs::Graph(AnalyzeGraphArgs {
                        input,
                        hub_fraction,
                    })))
                }
            }
        }
        "generate" => {
            let kind = it
                .next()
                .ok_or_else(|| ParseError("generate: missing kind (rmat|ba|er|ws)".into()))?
                .to_string();
            let mut scale = None;
            let mut edge_factor = 16u32;
            let mut seed = 42u64;
            let mut params = "social".to_string();
            let mut output = None;
            while let Some(arg) = it.next() {
                match arg {
                    "--scale" | "-s" => {
                        scale = Some(parse_num(arg, &take_value(arg, &mut it)?)?);
                    }
                    "--edge-factor" | "-e" => {
                        edge_factor = parse_num(arg, &take_value(arg, &mut it)?)?;
                    }
                    "--seed" => seed = parse_num(arg, &take_value(arg, &mut it)?)?,
                    "--params" => params = take_value(arg, &mut it)?,
                    "-o" | "--output" => output = Some(take_value(arg, &mut it)?),
                    _ => return Err(ParseError(format!("unexpected argument '{arg}'"))),
                }
            }
            let scale = scale.ok_or_else(|| ParseError("generate: --scale required".into()))?;
            let output = output.ok_or_else(|| ParseError("generate: -o <file> required".into()))?;
            if !["rmat", "ba", "er", "ws"].contains(&kind.as_str()) {
                return Err(ParseError(format!("unknown generator '{kind}'")));
            }
            if !["social", "web", "mild"].contains(&params.as_str()) {
                return Err(ParseError(format!("unknown params preset '{params}'")));
            }
            Ok(Command::Generate(GenerateArgs {
                kind,
                scale,
                edge_factor,
                seed,
                params,
                output,
            }))
        }
        "check" => {
            let mut input = None;
            let mut hubs = None;
            let mut differential = false;
            while let Some(arg) = it.next() {
                match arg {
                    "--hubs" => hubs = Some(parse_num(arg, &take_value(arg, &mut it)?)?),
                    "--differential" => differential = true,
                    _ if input.is_none() && !arg.starts_with('-') => {
                        input = Some(arg.to_string());
                    }
                    _ => return Err(ParseError(format!("unexpected argument '{arg}'"))),
                }
            }
            let input = input.ok_or_else(|| ParseError("check: missing graph path".into()))?;
            Ok(Command::Check(CheckArgs {
                input,
                hubs,
                differential,
            }))
        }
        "bench" => {
            let rest: Vec<&str> = it.collect();
            if rest.first() == Some(&"compare") {
                let mut tolerance = 0.25f64;
                let mut paths = Vec::new();
                let mut it = rest[1..].iter().copied();
                while let Some(arg) = it.next() {
                    match arg {
                        "--tolerance" | "-t" => {
                            tolerance = parse_num(arg, &take_value(arg, &mut it)?)?;
                            if !(tolerance.is_finite() && tolerance >= 0.0) {
                                return Err(ParseError(
                                    "--tolerance must be a non-negative fraction (0.25 = +25%)"
                                        .into(),
                                ));
                            }
                        }
                        _ if !arg.starts_with('-') => paths.push(arg.to_string()),
                        _ => return Err(ParseError(format!("unexpected argument '{arg}'"))),
                    }
                }
                let mut paths = paths.into_iter();
                let baseline = paths
                    .next()
                    .ok_or_else(|| ParseError("bench compare: missing baseline path".into()))?;
                let current = paths
                    .next()
                    .ok_or_else(|| ParseError("bench compare: missing current path".into()))?;
                if let Some(extra) = paths.next() {
                    return Err(ParseError(format!("unexpected argument '{extra}'")));
                }
                Ok(Command::Bench(BenchArgs::Compare(BenchCompareArgs {
                    baseline,
                    current,
                    tolerance,
                })))
            } else {
                let mut suite = "ci".to_string();
                let mut json = None;
                let mut threads = None;
                let mut it = rest.iter().copied();
                while let Some(arg) = it.next() {
                    match arg {
                        "--suite" | "-s" => suite = take_value(arg, &mut it)?,
                        "--json" | "-j" => json = Some(take_value(arg, &mut it)?),
                        "--threads" => threads = Some(parse_threads(&mut it)?),
                        _ => return Err(ParseError(format!("unexpected argument '{arg}'"))),
                    }
                }
                Ok(Command::Bench(BenchArgs::Run(BenchRunArgs {
                    suite,
                    json,
                    threads,
                })))
            }
        }
        "convert" => {
            let mut positional = Vec::new();
            let mut strict = false;
            for arg in it {
                match arg {
                    "--strict" => strict = true,
                    _ if !arg.starts_with('-') => positional.push(arg.to_string()),
                    _ => return Err(ParseError(format!("unexpected argument '{arg}'"))),
                }
            }
            let mut positional = positional.into_iter();
            let input = positional
                .next()
                .ok_or_else(|| ParseError("convert: missing input path".into()))?;
            let output = positional
                .next()
                .ok_or_else(|| ParseError("convert: missing output path".into()))?;
            if let Some(extra) = positional.next() {
                return Err(ParseError(format!("unexpected argument '{extra}'")));
            }
            Ok(Command::Convert(ConvertArgs {
                input,
                output,
                strict,
            }))
        }
        "serve" => {
            let rest: Vec<&str> = it.collect();
            // `serve recover` is its own verb (offline replay); every
            // other positional under `serve` stays an error.
            if rest.first().copied() == Some("recover") {
                let mut data_dir = None;
                let mut dry_run = false;
                let mut json = None;
                let mut it = rest[1..].iter().copied();
                while let Some(arg) = it.next() {
                    match arg {
                        "--dry-run" => dry_run = true,
                        "--json" | "-j" => json = Some(take_value(arg, &mut it)?),
                        _ if data_dir.is_none() && !arg.starts_with('-') => {
                            data_dir = Some(arg.to_string());
                        }
                        _ => return Err(ParseError(format!("unexpected argument '{arg}'"))),
                    }
                }
                let data_dir = data_dir
                    .ok_or_else(|| ParseError("serve recover: missing data directory".into()))?;
                return Ok(Command::ServeRecover(ServeRecoverArgs {
                    data_dir,
                    dry_run,
                    json,
                }));
            }
            let mut bind = "127.0.0.1".to_string();
            let mut port = 0u16;
            let mut workers = 0usize;
            let mut queue = 0usize;
            let mut mem_budget = None;
            let mut preload = Vec::new();
            let mut data_dir = None;
            let mut snapshot_interval_secs = None;
            let mut event_threads = 0usize;
            let mut max_conns = 0usize;
            let mut it = rest.iter().copied();
            while let Some(arg) = it.next() {
                match arg {
                    "--bind" | "-b" => bind = take_value(arg, &mut it)?,
                    "--event-threads" => {
                        event_threads = parse_num(arg, &take_value(arg, &mut it)?)?;
                    }
                    "--max-conns" => max_conns = parse_num(arg, &take_value(arg, &mut it)?)?,
                    "--port" | "-p" => port = parse_num(arg, &take_value(arg, &mut it)?)?,
                    "--workers" | "-w" => workers = parse_num(arg, &take_value(arg, &mut it)?)?,
                    "--queue" | "-q" => queue = parse_num(arg, &take_value(arg, &mut it)?)?,
                    "--mem-budget" => {
                        let value = take_value(arg, &mut it)?;
                        mem_budget = Some(
                            MemoryBudget::parse(&value)
                                .map_err(|e| ParseError(format!("--mem-budget: {e}")))?,
                        );
                    }
                    "--preload" => {
                        let value = take_value(arg, &mut it)?;
                        let (name, spec) = value.split_once('=').ok_or_else(|| {
                            ParseError(format!("--preload expects NAME=SPEC, got '{value}'"))
                        })?;
                        if name.is_empty() || spec.is_empty() {
                            return Err(ParseError(format!(
                                "--preload expects NAME=SPEC, got '{value}'"
                            )));
                        }
                        preload.push((name.to_string(), spec.to_string()));
                    }
                    "--data-dir" => data_dir = Some(take_value(arg, &mut it)?),
                    "--snapshot-interval" => {
                        snapshot_interval_secs = Some(parse_num(arg, &take_value(arg, &mut it)?)?);
                    }
                    _ => return Err(ParseError(format!("unexpected argument '{arg}'"))),
                }
            }
            Ok(Command::Serve(ServeCliArgs {
                bind,
                port,
                workers,
                queue,
                mem_budget,
                preload,
                data_dir,
                snapshot_interval_secs,
                event_threads,
                max_conns,
            }))
        }
        "query" => {
            let mut deadline_ms = None;
            let mut positional = Vec::new();
            while let Some(arg) = it.next() {
                match arg {
                    "--deadline-ms" | "-d" => {
                        deadline_ms = Some(parse_num(arg, &take_value(arg, &mut it)?)?);
                    }
                    "--range" | "-r" => positional.push(("--range", take_value(arg, &mut it)?)),
                    _ if !arg.starts_with('-') => positional.push(("", arg.to_string())),
                    _ => return Err(ParseError(format!("unexpected argument '{arg}'"))),
                }
            }
            let mut range = None;
            let mut words = Vec::new();
            for (flag, value) in positional {
                if flag == "--range" {
                    let (a, b) = value.split_once("..").ok_or_else(|| {
                        ParseError(format!("--range expects A..B, got '{value}'"))
                    })?;
                    let start: u32 = parse_num("--range", a)?;
                    let end: u32 = parse_num("--range", b)?;
                    if start > end {
                        return Err(ParseError(format!(
                            "--range start {start} exceeds end {end}"
                        )));
                    }
                    range = Some((start, end));
                } else {
                    words.push(value);
                }
            }
            let mut words = words.into_iter();
            let addr = words
                .next()
                .ok_or_else(|| ParseError("query: missing daemon address".into()))?;
            let verb = words
                .next()
                .ok_or_else(|| ParseError("query: missing action".into()))?;
            let mut need = |what: &str| {
                words
                    .next()
                    .ok_or_else(|| ParseError(format!("query {verb}: missing {what}")))
            };
            let deadline_ms = deadline_ms.unwrap_or(NO_DEADLINE);
            let request = match verb.as_str() {
                "ping" => Request::Ping,
                "stats" => Request::Stats,
                "drain" => Request::Drain,
                "count" => Request::Count {
                    name: need("graph name")?,
                    deadline_ms,
                },
                "per-vertex" => {
                    // (0, 0) asks the daemon for its default span.
                    let (start, end) = range.unwrap_or((0, 0));
                    Request::PerVertex {
                        name: need("graph name")?,
                        start,
                        end,
                        deadline_ms,
                    }
                }
                "kclique" => Request::KClique {
                    name: need("graph name")?,
                    k: parse_num("kclique k", &need("clique size k")?)?,
                    deadline_ms,
                },
                "load" => Request::LoadGraph {
                    name: need("graph name")?,
                    spec: need("graph spec")?,
                },
                "evict" => Request::EvictGraph {
                    name: need("graph name")?,
                },
                "shard-stat" => Request::ShardStat,
                "join" => Request::ShardJoin {
                    addr: need("shard address")?,
                },
                other => return Err(ParseError(format!("unknown query action '{other}'"))),
            };
            if range.is_some() && !matches!(request, Request::PerVertex { .. }) {
                return Err(ParseError("--range only applies to per-vertex".into()));
            }
            if let Some(extra) = words.next() {
                return Err(ParseError(format!("unexpected argument '{extra}'")));
            }
            Ok(Command::Query(QueryArgs { addr, request }))
        }
        "loadgen" => {
            let mut addr = None;
            let mut suite = None;
            let mut connections = None;
            let mut requests = None;
            let mut seed = None;
            let mut graph = None;
            let mut deadline_ms = None;
            let mut json = None;
            let mut pipeline = None;
            let mut cluster = false;
            while let Some(arg) = it.next() {
                match arg {
                    "--suite" | "-s" => {
                        let value = take_value(arg, &mut it)?;
                        if value != "ci" {
                            return Err(ParseError(format!("unknown loadgen suite '{value}'")));
                        }
                        suite = Some(value);
                    }
                    "--pipeline" => {
                        let depth: usize = parse_num(arg, &take_value(arg, &mut it)?)?;
                        if depth == 0 {
                            return Err(ParseError("--pipeline must be at least 1".into()));
                        }
                        pipeline = Some(depth);
                    }
                    "--cluster" => cluster = true,
                    "--connections" | "-c" => {
                        connections = Some(parse_num(arg, &take_value(arg, &mut it)?)?);
                    }
                    "--requests" | "-n" => {
                        requests = Some(parse_num(arg, &take_value(arg, &mut it)?)?);
                    }
                    "--seed" => seed = Some(parse_num(arg, &take_value(arg, &mut it)?)?),
                    "--graph" | "-g" => graph = Some(take_value(arg, &mut it)?),
                    "--deadline-ms" | "-d" => {
                        deadline_ms = Some(parse_num(arg, &take_value(arg, &mut it)?)?);
                    }
                    "--json" | "-j" => json = Some(take_value(arg, &mut it)?),
                    _ if addr.is_none() && !arg.starts_with('-') => {
                        addr = Some(arg.to_string());
                    }
                    _ => return Err(ParseError(format!("unexpected argument '{arg}'"))),
                }
            }
            let addr = addr.ok_or_else(|| ParseError("loadgen: missing daemon address".into()))?;
            Ok(Command::Loadgen(LoadgenCliArgs {
                addr,
                suite,
                connections,
                requests,
                seed,
                graph,
                deadline_ms,
                json,
                pipeline,
                cluster,
            }))
        }
        "cluster" => {
            let rest: Vec<&str> = it.collect();
            match rest.first().copied() {
                Some("serve") => {
                    let mut bind = "127.0.0.1".to_string();
                    let mut port = 0u16;
                    let mut shards = Vec::new();
                    let mut data_dir = None;
                    let mut deadline_ms = None;
                    let mut allow_partial = false;
                    let mut retry_seed = None;
                    let mut it = rest[1..].iter().copied();
                    while let Some(arg) = it.next() {
                        match arg {
                            "--bind" | "-b" => bind = take_value(arg, &mut it)?,
                            "--port" | "-p" => port = parse_num(arg, &take_value(arg, &mut it)?)?,
                            "--shard" => shards.push(take_value(arg, &mut it)?),
                            "--data-dir" => data_dir = Some(take_value(arg, &mut it)?),
                            "--deadline-ms" | "-d" => {
                                deadline_ms = Some(parse_num(arg, &take_value(arg, &mut it)?)?);
                            }
                            "--allow-partial" => allow_partial = true,
                            "--retry-seed" => {
                                retry_seed = Some(parse_num(arg, &take_value(arg, &mut it)?)?);
                            }
                            _ => return Err(ParseError(format!("unexpected argument '{arg}'"))),
                        }
                    }
                    Ok(Command::ClusterServe(ClusterServeArgs {
                        bind,
                        port,
                        shards,
                        data_dir,
                        deadline_ms,
                        allow_partial,
                        retry_seed,
                    }))
                }
                Some("shard") => {
                    // Peel --coordinator, forward everything else to the
                    // serve parser so the two verbs never drift apart.
                    let mut coordinator = None;
                    let mut forwarded = vec!["serve"];
                    let mut i = 1;
                    while i < rest.len() {
                        if rest[i] == "--coordinator" {
                            i += 1;
                            let addr = rest.get(i).copied().ok_or_else(|| {
                                ParseError("--coordinator requires a value".into())
                            })?;
                            coordinator = Some(addr.to_string());
                        } else {
                            forwarded.push(rest[i]);
                        }
                        i += 1;
                    }
                    match parse(&forwarded)? {
                        Command::Serve(serve) => Ok(Command::ClusterShard(ClusterShardArgs {
                            serve,
                            coordinator,
                        })),
                        _ => Err(ParseError("unexpected argument 'recover'".into())),
                    }
                }
                Some("query") => {
                    // Same wire protocol as a single daemon: alias.
                    let mut forwarded = vec!["query"];
                    forwarded.extend(rest[1..].iter().copied());
                    parse(&forwarded)
                }
                Some(other) => Err(ParseError(format!("unknown cluster verb '{other}'"))),
                None => Err(ParseError(
                    "cluster: missing verb (serve|shard|query)".into(),
                )),
            }
        }
        other => Err(ParseError(format!("unknown subcommand '{other}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_count_defaults() {
        let c = parse(&["count", "g.txt"]).unwrap();
        assert_eq!(
            c,
            Command::Count(CountArgs {
                input: "g.txt".into(),
                algorithm: "lotus".into(),
                hubs: None,
                per_vertex: false,
                timeout: None,
                mem_budget: None,
                strict: false,
                threads: None,
            })
        );
    }

    #[test]
    fn parses_count_flags() {
        let c = parse(&[
            "count",
            "g.lotg",
            "--algorithm",
            "forward",
            "--hubs",
            "512",
            "--per-vertex",
        ])
        .unwrap();
        match c {
            Command::Count(a) => {
                assert_eq!(a.algorithm, "forward");
                assert_eq!(a.hubs, Some(512));
                assert!(a.per_vertex);
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn parses_resilience_flags() {
        let c = parse(&[
            "count",
            "g.lotg",
            "--timeout",
            "2.5",
            "--mem-budget",
            "512m",
            "--strict",
            "--threads",
            "2",
        ])
        .unwrap();
        match c {
            Command::Count(a) => {
                assert_eq!(a.timeout, Some(2.5));
                assert_eq!(a.mem_budget, Some(MemoryBudget::from_bytes(512 << 20)));
                assert!(a.strict);
                assert_eq!(a.threads, Some(2));
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn rejects_bad_resilience_flags() {
        assert!(parse(&["count", "g", "--timeout"]).is_err());
        assert!(parse(&["count", "g", "--timeout", "abc"]).is_err());
        assert!(parse(&["count", "g", "--timeout", "-1"]).is_err());
        assert!(parse(&["count", "g", "--timeout", "inf"]).is_err());
        assert!(parse(&["count", "g", "--mem-budget"]).is_err());
        assert!(parse(&["count", "g", "--mem-budget", "12x"]).is_err());
    }

    #[test]
    fn parses_generate() {
        let c = parse(&[
            "generate",
            "rmat",
            "--scale",
            "12",
            "--edge-factor",
            "8",
            "--seed",
            "7",
            "--params",
            "web",
            "-o",
            "out.lotg",
        ])
        .unwrap();
        match c {
            Command::Generate(g) => {
                assert_eq!(g.scale, 12);
                assert_eq!(g.edge_factor, 8);
                assert_eq!(g.seed, 7);
                assert_eq!(g.params, "web");
                assert_eq!(g.output, "out.lotg");
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["frobnicate"]).is_err());
        assert!(parse(&["count"]).is_err());
        assert!(parse(&["count", "g.txt", "--hubs"]).is_err());
        assert!(parse(&["count", "g.txt", "--hubs", "abc"]).is_err());
        assert!(parse(&["generate", "rmat", "-o", "x"]).is_err()); // no scale
        assert!(parse(&["generate", "nope", "--scale", "4", "-o", "x"]).is_err());
        assert!(parse(&["analyze", "g", "--hub-fraction", "2.0"]).is_err());
        assert!(parse(&["convert", "only-one"]).is_err());
    }

    #[test]
    fn parses_check() {
        let c = parse(&["check", "g.lotg", "--hubs", "64", "--differential"]).unwrap();
        assert_eq!(
            c,
            Command::Check(CheckArgs {
                input: "g.lotg".into(),
                hubs: Some(64),
                differential: true,
            })
        );
        assert_eq!(
            parse(&["check", "g.txt"]).unwrap(),
            Command::Check(CheckArgs {
                input: "g.txt".into(),
                hubs: None,
                differential: false
            })
        );
        assert!(parse(&["check"]).is_err());
        assert!(parse(&["check", "g.txt", "--hubs"]).is_err());
    }

    #[test]
    fn parses_bench_run() {
        assert_eq!(
            parse(&["bench"]).unwrap(),
            Command::Bench(BenchArgs::Run(BenchRunArgs {
                suite: "ci".into(),
                json: None,
                threads: None,
            }))
        );
        assert_eq!(
            parse(&[
                "bench",
                "--suite",
                "full",
                "--json",
                "out.json",
                "--threads",
                "4"
            ])
            .unwrap(),
            Command::Bench(BenchArgs::Run(BenchRunArgs {
                suite: "full".into(),
                json: Some("out.json".into()),
                threads: Some(4),
            }))
        );
        assert!(parse(&["bench", "--suite"]).is_err());
        assert!(parse(&["bench", "extra"]).is_err());
        assert!(parse(&["bench", "--threads", "0"]).is_err());
        assert!(parse(&["bench", "--threads", "x"]).is_err());
    }

    #[test]
    fn parses_bench_compare() {
        assert_eq!(
            parse(&["bench", "compare", "a.json", "b.json"]).unwrap(),
            Command::Bench(BenchArgs::Compare(BenchCompareArgs {
                baseline: "a.json".into(),
                current: "b.json".into(),
                tolerance: 0.25,
            }))
        );
        assert_eq!(
            parse(&["bench", "compare", "a.json", "b.json", "--tolerance", "0.1"]).unwrap(),
            Command::Bench(BenchArgs::Compare(BenchCompareArgs {
                baseline: "a.json".into(),
                current: "b.json".into(),
                tolerance: 0.1,
            }))
        );
        assert!(parse(&["bench", "compare", "a.json"]).is_err());
        assert!(parse(&["bench", "compare", "a", "b", "c"]).is_err());
        assert!(parse(&["bench", "compare", "a", "b", "--tolerance", "-1"]).is_err());
        assert!(parse(&["bench", "compare", "a", "b", "--tolerance", "nan"]).is_err());
    }

    #[test]
    fn parses_analyze_modes() {
        // Bare path (back-compat) and explicit `graph` spelling agree.
        let bare = parse(&["analyze", "g.txt"]).unwrap();
        let explicit = parse(&["analyze", "graph", "g.txt"]).unwrap();
        assert_eq!(bare, explicit);
        assert_eq!(
            bare,
            Command::Analyze(AnalyzeArgs::Graph(AnalyzeGraphArgs {
                input: "g.txt".into(),
                hub_fraction: 0.01,
            }))
        );
        assert_eq!(
            parse(&["analyze", "lint"]).unwrap(),
            Command::Analyze(AnalyzeArgs::Lint(AnalyzeLintArgs {
                waivers: None,
                json: None,
                deny_stale: false,
            }))
        );
        assert_eq!(
            parse(&[
                "analyze",
                "lint",
                "--waivers",
                "w.json",
                "--json",
                "out.json",
                "--deny-stale"
            ])
            .unwrap(),
            Command::Analyze(AnalyzeArgs::Lint(AnalyzeLintArgs {
                waivers: Some("w.json".into()),
                json: Some("out.json".into()),
                deny_stale: true,
            }))
        );
        assert_eq!(
            parse(&["analyze", "locks"]).unwrap(),
            Command::Analyze(AnalyzeArgs::Locks(AnalyzeLocksArgs {
                waivers: None,
                json: None,
            }))
        );
        assert_eq!(
            parse(&[
                "analyze",
                "locks",
                "--waivers",
                "w.json",
                "--json",
                "l.json"
            ])
            .unwrap(),
            Command::Analyze(AnalyzeArgs::Locks(AnalyzeLocksArgs {
                waivers: Some("w.json".into()),
                json: Some("l.json".into()),
            }))
        );
        assert_eq!(
            parse(&["analyze", "race"]).unwrap(),
            Command::Analyze(AnalyzeArgs::Race(AnalyzeRaceArgs {
                seeds: vec![],
                json: None,
            }))
        );
        assert_eq!(
            parse(&["analyze", "race", "--seeds", "7,42, 3", "--json", "r.json"]).unwrap(),
            Command::Analyze(AnalyzeArgs::Race(AnalyzeRaceArgs {
                seeds: vec![7, 42, 3],
                json: Some("r.json".into()),
            }))
        );
        assert!(parse(&["analyze"]).is_err());
        assert!(parse(&["analyze", "lint", "--waivers"]).is_err());
        assert!(parse(&["analyze", "lint", "extra"]).is_err());
        assert!(parse(&["analyze", "race", "--seeds", "x"]).is_err());
        assert!(parse(&["analyze", "locks", "extra"]).is_err());
        assert!(parse(&["analyze", "locks", "--waivers"]).is_err());
        assert!(parse(&["analyze", "graph"]).is_err());
    }

    #[test]
    fn parses_serve() {
        assert_eq!(
            parse(&["serve"]).unwrap(),
            Command::Serve(ServeCliArgs {
                bind: "127.0.0.1".into(),
                port: 0,
                workers: 0,
                queue: 0,
                mem_budget: None,
                preload: vec![],
                data_dir: None,
                snapshot_interval_secs: None,
                event_threads: 0,
                max_conns: 0,
            })
        );
        let c = parse(&[
            "serve",
            "--bind",
            "0.0.0.0",
            "--port",
            "7070",
            "--workers",
            "8",
            "--queue",
            "32",
            "--mem-budget",
            "1g",
            "--preload",
            "g=rmat:9:8:7",
            "--preload",
            "h=er:128:512:3",
            "--data-dir",
            "/tmp/lotus-data",
            "--snapshot-interval",
            "30",
            "--event-threads",
            "2",
            "--max-conns",
            "2048",
        ])
        .unwrap();
        match c {
            Command::Serve(a) => {
                assert_eq!(a.bind, "0.0.0.0");
                assert_eq!(a.port, 7070);
                assert_eq!(a.workers, 8);
                assert_eq!(a.queue, 32);
                assert_eq!(a.mem_budget, Some(MemoryBudget::from_bytes(1 << 30)));
                assert_eq!(
                    a.preload,
                    vec![
                        ("g".into(), "rmat:9:8:7".into()),
                        ("h".into(), "er:128:512:3".into())
                    ]
                );
                assert_eq!(a.data_dir.as_deref(), Some("/tmp/lotus-data"));
                assert_eq!(a.snapshot_interval_secs, Some(30));
                assert_eq!(a.event_threads, 2);
                assert_eq!(a.max_conns, 2048);
            }
            _ => panic!("wrong command"),
        }
        assert!(parse(&["serve", "--port", "99999"]).is_err());
        assert!(parse(&["serve", "--event-threads", "x"]).is_err());
        assert!(parse(&["serve", "--max-conns"]).is_err());
        assert!(parse(&["serve", "--preload", "no-equals"]).is_err());
        assert!(parse(&["serve", "--preload", "=spec"]).is_err());
        assert!(parse(&["serve", "--snapshot-interval", "x"]).is_err());
        assert!(parse(&["serve", "stray"]).is_err());
    }

    #[test]
    fn parses_serve_recover() {
        assert_eq!(
            parse(&["serve", "recover", "/var/lotus"]).unwrap(),
            Command::ServeRecover(ServeRecoverArgs {
                data_dir: "/var/lotus".into(),
                dry_run: false,
                json: None,
            })
        );
        assert_eq!(
            parse(&["serve", "recover", "d", "--dry-run", "--json", "r.json"]).unwrap(),
            Command::ServeRecover(ServeRecoverArgs {
                data_dir: "d".into(),
                dry_run: true,
                json: Some("r.json".into()),
            })
        );
        assert!(parse(&["serve", "recover"]).is_err());
        assert!(parse(&["serve", "recover", "a", "b"]).is_err());
        assert!(parse(&["serve", "recover", "d", "--frob"]).is_err());
    }

    #[test]
    fn parses_query_actions() {
        assert_eq!(
            parse(&["query", "127.0.0.1:7070", "ping"]).unwrap(),
            Command::Query(QueryArgs {
                addr: "127.0.0.1:7070".into(),
                request: Request::Ping,
            })
        );
        assert_eq!(
            parse(&["query", "a:1", "count", "g", "--deadline-ms", "250"]).unwrap(),
            Command::Query(QueryArgs {
                addr: "a:1".into(),
                request: Request::Count {
                    name: "g".into(),
                    deadline_ms: 250,
                },
            })
        );
        assert_eq!(
            parse(&["query", "a:1", "per-vertex", "g", "--range", "16..80"]).unwrap(),
            Command::Query(QueryArgs {
                addr: "a:1".into(),
                request: Request::PerVertex {
                    name: "g".into(),
                    start: 16,
                    end: 80,
                    deadline_ms: NO_DEADLINE,
                },
            })
        );
        assert_eq!(
            parse(&["query", "a:1", "kclique", "g", "5"]).unwrap(),
            Command::Query(QueryArgs {
                addr: "a:1".into(),
                request: Request::KClique {
                    name: "g".into(),
                    k: 5,
                    deadline_ms: NO_DEADLINE,
                },
            })
        );
        assert_eq!(
            parse(&["query", "a:1", "load", "g", "rmat:9:8:7"]).unwrap(),
            Command::Query(QueryArgs {
                addr: "a:1".into(),
                request: Request::LoadGraph {
                    name: "g".into(),
                    spec: "rmat:9:8:7".into()
                },
            })
        );
        assert_eq!(
            parse(&["query", "a:1", "evict", "g"]).unwrap(),
            Command::Query(QueryArgs {
                addr: "a:1".into(),
                request: Request::EvictGraph { name: "g".into() },
            })
        );
        assert!(parse(&["query"]).is_err());
        assert!(parse(&["query", "a:1"]).is_err());
        assert!(parse(&["query", "a:1", "frobnicate"]).is_err());
        assert!(parse(&["query", "a:1", "count"]).is_err());
        assert!(parse(&["query", "a:1", "kclique", "g"]).is_err());
        assert!(parse(&["query", "a:1", "kclique", "g", "x"]).is_err());
        assert!(parse(&["query", "a:1", "per-vertex", "g", "--range", "80..16"]).is_err());
        assert!(parse(&["query", "a:1", "per-vertex", "g", "--range", "16"]).is_err());
        assert!(parse(&["query", "a:1", "count", "g", "--range", "0..4"]).is_err());
        assert!(parse(&["query", "a:1", "ping", "extra"]).is_err());
        assert_eq!(
            parse(&["query", "a:1", "shard-stat"]).unwrap(),
            Command::Query(QueryArgs {
                addr: "a:1".into(),
                request: Request::ShardStat,
            })
        );
        assert_eq!(
            parse(&["query", "a:1", "join", "b:2"]).unwrap(),
            Command::Query(QueryArgs {
                addr: "a:1".into(),
                request: Request::ShardJoin { addr: "b:2".into() },
            })
        );
        assert!(parse(&["query", "a:1", "join"]).is_err());
    }

    #[test]
    fn parses_cluster_serve() {
        assert_eq!(
            parse(&[
                "cluster",
                "serve",
                "--shard",
                "a:1",
                "--shard",
                "b:2",
                "--data-dir",
                "/var/lotus",
                "--deadline-ms",
                "2500",
                "--allow-partial",
                "--retry-seed",
                "9",
            ])
            .unwrap(),
            Command::ClusterServe(ClusterServeArgs {
                bind: "127.0.0.1".into(),
                port: 0,
                shards: vec!["a:1".into(), "b:2".into()],
                data_dir: Some("/var/lotus".into()),
                deadline_ms: Some(2500),
                allow_partial: true,
                retry_seed: Some(9),
            })
        );
        assert_eq!(
            parse(&["cluster", "serve"]).unwrap(),
            Command::ClusterServe(ClusterServeArgs {
                bind: "127.0.0.1".into(),
                port: 0,
                shards: vec![],
                data_dir: None,
                deadline_ms: None,
                allow_partial: false,
                retry_seed: None,
            })
        );
        assert!(parse(&["cluster", "serve", "--shard"]).is_err());
        assert!(parse(&["cluster", "serve", "stray"]).is_err());
        assert!(parse(&["cluster"]).is_err());
        assert!(parse(&["cluster", "frobnicate"]).is_err());
    }

    #[test]
    fn parses_cluster_shard() {
        let c = parse(&[
            "cluster",
            "shard",
            "--port",
            "7071",
            "--workers",
            "2",
            "--coordinator",
            "c:1",
        ])
        .unwrap();
        match c {
            Command::ClusterShard(a) => {
                assert_eq!(a.serve.port, 7071);
                assert_eq!(a.serve.workers, 2);
                assert_eq!(a.coordinator.as_deref(), Some("c:1"));
            }
            other => panic!("{other:?}"),
        }
        // Without --coordinator the shard is a plain daemon awaiting a join.
        match parse(&["cluster", "shard"]).unwrap() {
            Command::ClusterShard(a) => assert_eq!(a.coordinator, None),
            other => panic!("{other:?}"),
        }
        assert!(parse(&["cluster", "shard", "--coordinator"]).is_err());
        assert!(parse(&["cluster", "shard", "recover", "d"]).is_err());
    }

    #[test]
    fn cluster_query_is_an_alias() {
        assert_eq!(
            parse(&["cluster", "query", "a:1", "shard-stat"]).unwrap(),
            parse(&["query", "a:1", "shard-stat"]).unwrap(),
        );
    }

    #[test]
    fn parses_loadgen() {
        assert_eq!(
            parse(&["loadgen", "a:1", "--suite", "ci"]).unwrap(),
            Command::Loadgen(LoadgenCliArgs {
                addr: "a:1".into(),
                suite: Some("ci".into()),
                connections: None,
                requests: None,
                seed: None,
                graph: None,
                deadline_ms: None,
                json: None,
                pipeline: None,
                cluster: false,
            })
        );
        let c = parse(&[
            "loadgen",
            "a:1",
            "--connections",
            "8",
            "--requests",
            "100",
            "--seed",
            "7",
            "--graph",
            "er:256:1024:5",
            "--deadline-ms",
            "500",
            "--json",
            "serve.json",
            "--pipeline",
            "4",
        ])
        .unwrap();
        match c {
            Command::Loadgen(a) => {
                assert_eq!(a.connections, Some(8));
                assert_eq!(a.requests, Some(100));
                assert_eq!(a.seed, Some(7));
                assert_eq!(a.graph.as_deref(), Some("er:256:1024:5"));
                assert_eq!(a.deadline_ms, Some(500));
                assert_eq!(a.json.as_deref(), Some("serve.json"));
                assert_eq!(a.pipeline, Some(4));
                assert!(!a.cluster);
            }
            _ => panic!("wrong command"),
        }
        assert!(parse(&["loadgen"]).is_err());
        assert!(parse(&["loadgen", "a:1", "--suite", "nope"]).is_err());
        assert!(parse(&["loadgen", "a:1", "--connections", "x"]).is_err());
        assert!(parse(&["loadgen", "a:1", "--pipeline", "0"]).is_err());
        assert!(parse(&["loadgen", "a:1", "--legacy-threads"]).is_err());
    }

    #[test]
    fn help_variants() {
        for h in [&["help"][..], &["--help"], &["-h"]] {
            assert_eq!(parse(h).unwrap(), Command::Help);
        }
    }
}
