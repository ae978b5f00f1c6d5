//! Argument parsing (no external CLI dependency).
//!
//! Each verb declares its positionals and flags once, as rows of one
//! table: spelling, value name and default, help line and the setter
//! that applies the value to the verb's target. `args!` declares a
//! CLI-only target struct together with its table; `flags!` writes a
//! table for a library config (`serve`, `cluster serve`, `loadgen`).
//! One loop, `read`, parses every verb against its table, and
//! [`usage`] renders `lotus help` from the same tables.

use std::fmt;
use std::fmt::Write as _;
use std::str::FromStr;
use std::time::Duration;

use lotus_cluster::ClusterConfig;
use lotus_resilience::MemoryBudget;
use lotus_serve::proto::NO_DEADLINE;
use lotus_serve::{LoadgenConfig, Request, ServeConfig};

/// Usage text shown by `lotus help`: every verb with its table, then
/// the notes.
pub fn usage() -> String {
    let mut out = String::from(
        "lotus — locality-optimizing triangle counting (PPoPP'22 reproduction)\n\nUSAGE:\n",
    );
    section(&mut out, "count", COUNT);
    section(&mut out, "analyze [graph]", ANALYZE);
    section(&mut out, "analyze lint", LINT);
    section(&mut out, "analyze race", RACE);
    section(&mut out, "analyze locks", LOCKS);
    section(&mut out, "generate", GENERATE);
    section(&mut out, "convert", CONVERT);
    section(&mut out, "check", CHECK);
    section(&mut out, "bench", BENCH);
    section(&mut out, "bench compare", COMPARE);
    section(&mut out, "serve", SERVE);
    section(&mut out, "serve recover", RECOVER);
    section(&mut out, "cluster serve", CLUSTER);
    section(&mut out, "cluster shard [serve flags]", &SHARD[..1]);
    section(&mut out, "cluster query", &QUERY[..2]);
    section(&mut out, "query", QUERY);
    section(&mut out, "loadgen", LOADGEN);
    section::<()>(&mut out, "help", &[]);
    out + NOTES
}

/// Appends a verb's synopsis (with its positionals) and one line per flag.
fn section<T>(out: &mut String, verb: &str, rows: &[Flag<T>]) {
    let (args, flags): (Vec<_>, Vec<_>) = rows.iter().partition(|f| f.is_positional());
    let _ = write!(out, "  lotus {verb}");
    for arg in args {
        let _ = write!(out, " {}", arg.long);
    }
    out.push('\n');
    for f in flags {
        let short = f
            .short
            .map_or_else(|| "    ".to_string(), |s| format!("{s}, "));
        let spelled = format!("{short}{} {}", f.long, f.value);
        let default = match f.default {
            "" => String::new(),
            value => format!(" (default {value})"),
        };
        let _ = writeln!(out, "      {:<30}{}{default}", spelled.trim_end(), f.help);
    }
}

const NOTES: &str = "
Graph files: whitespace edge lists (any extension) or binary .lotg files.
query actions: ping, stats, drain, count NAME, per-vertex NAME, kclique
NAME K, load NAME SPEC, evict NAME, shard-stat, join ADDR. cluster query
is an alias of query.

bench runs a named dataset x algorithm suite and, with --json, writes
the machine-readable BENCH.json artifact (schema v1, documented in
EXPERIMENTS.md). bench compare diffs two artifacts and fails (exit 1)
on triangle-count changes, missing runs, wall-time regressions beyond
--tolerance, or a changed exact work counter (both artifacts with
telemetry). Builds without `--features telemetry` report all work
counters as 0.

serve with --data-dir persists registered graphs (snapshots plus a
write-ahead manifest journal) and replays them on restart, quarantining
any torn or corrupt file instead of refusing to start. serve recover
replays a data directory offline and prints the recovery report as
JSON without starting a daemon. serve multiplexes connections over a
small set of readiness event loops and refuses connections past
--max-conns with a structured Overloaded frame.

cluster serve runs the fan-out coordinator (DESIGN.md §16): it fronts
shard daemons, speaks the same LSRV protocol as serve, and answers
Count/PerVertex by summing exact per-shard counts. More shards join at
runtime via `lotus query <coordinator> join ADDR`, and query shard-stat
aggregates their occupancy. loadgen --cluster leaves k-clique, which
cluster mode rejects, out of the mix and writes the BENCH artifact
section under \"cluster\" instead of \"serve\".

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

/// One row of a verb's table: a flag, or a positional when its
/// spelling is `<name>`.
struct Flag<T> {
    /// Long spelling (`--port`), or `<name>` for a positional.
    long: &'static str,
    /// Short alias, e.g. `-p`.
    short: Option<&'static str>,
    /// Value name in usage; empty for a switch, which takes no value.
    value: &'static str,
    /// Value applied before parsing, if not empty.
    default: &'static str,
    /// One-line help in usage; for a positional, what a missing one is.
    help: &'static str,
    /// Applies the value (empty for a switch) to the verb's target.
    set: fn(&mut T, &Val<'_>) -> Result<(), ParseError>,
}

impl<T> Flag<T> {
    fn is_positional(&self) -> bool {
        self.long.starts_with('<')
    }

    /// Applies `text`, given on the command line as `flag`.
    fn apply(&self, target: &mut T, flag: &str, text: &str) -> Result<(), ParseError> {
        let long = self.long;
        (self.set)(target, &Val { flag, long, text })
    }
}

/// Declares a verb's table, one row per flag or positional:
/// `"--long" | "-s" ["VALUE" = "default"] "help" => |target, value| effect;`,
/// where the alias, value and default are optional and a row without a
/// value is a switch; a positional row reads `"<name>" "what"`.
macro_rules! flags {
    (@opt) => { None };
    (@opt $x:literal) => { Some($x) };
    (@or_empty) => { "" };
    (@or_empty $x:literal) => { $x };
    ($($long:literal $(| $short:literal)? $([$value:literal $(= $default:literal)?])?
        $help:literal => |$t:ident, $v:tt| $set:expr;)*) => {
        &[$(Flag {
            long: $long,
            short: flags!(@opt $($short)?),
            value: flags!(@or_empty $($value)?),
            default: flags!(@or_empty $($($default)?)?),
            help: $help,
            set: |$t, $v| {
                $set;
                Ok(())
            },
        }),*]
    };
}

/// Declares a verb's argument struct together with its table: one row
/// per field, `field: Type, <row as in flags!>`, whose help is the
/// field's doc.
macro_rules! args {
    ($(#[$meta:meta])* $vis:vis struct $name:ident: $table:ident {$(
        $field:ident: $ty:ty, $long:literal $(| $short:literal)? $([$($value:tt)*])?
            $help:literal => |$t:ident, $v:tt| $set:expr;
    )*}) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Default, PartialEq)]
        $vis struct $name {$(
            #[doc = $help]
            $vis $field: $ty,
        )*}

        const $table: &[Flag<$name>] = flags! {$(
            $long $(| $short)? $([$($value)*])? $help => |$t, $v| $set;
        )*};
    };
}

/// A flag's value as given, with the spelling it came under.
struct Val<'a> {
    /// The spelling on the command line (`-p` or `--port`).
    flag: &'a str,
    /// The row's long spelling, which range errors name.
    long: &'static str,
    text: &'a str,
}

impl Val<'_> {
    fn num<N: FromStr>(&self) -> Result<N, ParseError> {
        parse_num(self.flag, self.text)
    }

    fn at_least_one(&self) -> Result<usize, ParseError> {
        match self.num()? {
            0 => err(format!("{} must be at least 1", self.long)),
            n => Ok(n),
        }
    }

    fn non_negative(&self, what: &str) -> Result<f64, ParseError> {
        match self.num()? {
            x if f64::is_finite(x) && x >= 0.0 => Ok(x),
            _ => err(format!("{} must be a non-negative {what}", self.long)),
        }
    }

    fn one_of(&self, allowed: &[&str], what: &str) -> Result<String, ParseError> {
        if allowed.contains(&self.text) {
            Ok(self.text.into())
        } else {
            err(format!("unknown {what} '{}'", self.text))
        }
    }

    fn budget(&self) -> Result<MemoryBudget, ParseError> {
        MemoryBudget::parse(self.text).map_err(|e| ParseError(format!("{}: {e}", self.long)))
    }

    fn preload(&self) -> Result<(String, String), ParseError> {
        match self.text.split_once('=') {
            Some((name, spec)) if !name.is_empty() && !spec.is_empty() => {
                Ok((name.into(), spec.into()))
            }
            _ => err(format!(
                "{} expects NAME=SPEC, got '{}'",
                self.long, self.text
            )),
        }
    }

    fn range(&self) -> Result<(u32, u32), ParseError> {
        let (a, b) = self.text.split_once("..").ok_or_else(|| {
            ParseError(format!("{} expects A..B, got '{}'", self.long, self.text))
        })?;
        let (start, end): (u32, u32) = (parse_num(self.long, a)?, parse_num(self.long, b)?);
        if start > end {
            return err(format!("{} start {start} exceeds end {end}", self.long));
        }
        Ok((start, end))
    }
}

args! {
    /// Arguments of `lotus count`.
    pub struct CountArgs: COUNT {
        input: String, "<graph>" "graph path" => |c, v| c.input = v.text.into();
        algorithm: String, "--algorithm" | "-a" ["NAME" = "lotus"]
            "lotus|forward|edge-iterator|gbbs|bbtc|adaptive" => |c, v| c.algorithm = v.text.into();
        hubs: Option<u32>, "--hubs" ["N"] "fixed hub count (default: chosen from the graph)"
            => |c, v| c.hubs = Some(v.num()?);
        per_vertex: bool, "--per-vertex" "also print the 10 vertices in the most triangles"
            => |c, _| c.per_vertex = true;
        timeout: Option<f64>, "--timeout" ["SECS"] "interrupt the count after SECS (exit 124)"
            => |c, v| c.timeout = Some(v.non_negative("number of seconds")?);
        mem_budget: Option<MemoryBudget>, "--mem-budget" ["SIZE"] "shrink LOTUS to fit SIZE (2g)"
            => |c, v| c.mem_budget = Some(v.budget()?);
        strict: bool, "--strict" "reject malformed edge-list lines instead of warning"
            => |c, _| c.strict = true;
        threads: Option<usize>, "--threads" ["N"] "counting pool size (default: one per core)"
            => |c, v| c.threads = Some(v.at_least_one()?);
    }
}

args! {
    /// Arguments of `lotus analyze [graph] <path>`.
    pub struct AnalyzeGraphArgs: ANALYZE {
        input: String, "<graph>" "graph path" => |c, v| c.input = v.text.into();
        hub_fraction: f64, "--hub-fraction" ["F" = "0.01"] "hub share of the vertices, in (0, 1]"
            => |c, v| c.hub_fraction = match v.num()? {
                f if f > 0.0 && f <= 1.0 => f,
                _ => return err("--hub-fraction must be in (0, 1]"),
            };
    }
}

args! {
    /// Arguments of `lotus analyze lint`.
    pub struct AnalyzeLintArgs: LINT {
        waivers: Option<String>, "--waivers" | "-w" ["FILE"]
            "waiver file (default analyzer-waivers.json)" => |c, v| c.waivers = Some(v.text.into());
        json: Option<String>, "--json" | "-j" ["FILE"] "write the diagnostics as JSON"
            => |c, v| c.json = Some(v.text.into());
        deny_stale: bool, "--deny-stale" "fail on stale waivers too" => |c, _| c.deny_stale = true;
    }
}

args! {
    /// Arguments of `lotus analyze locks`.
    pub struct AnalyzeLocksArgs: LOCKS {
        waivers: Option<String>, "--waivers" | "-w" ["FILE"]
            "waiver file (default analyzer-waivers.json)" => |c, v| c.waivers = Some(v.text.into());
        json: Option<String>, "--json" | "-j" ["FILE"] "write the lock graph as JSON"
            => |c, v| c.json = Some(v.text.into());
    }
}

args! {
    /// Arguments of `lotus analyze race`.
    pub struct AnalyzeRaceArgs: RACE {
        seeds: Vec<u64>, "--seeds" | "-s" ["A,B,C"] "schedule seeds (default: the fixed CI set)"
            => |c, v| for part in v.text.split(',') {
                c.seeds.push(parse_num(v.flag, part.trim())?);
            };
        json: Option<String>, "--json" | "-j" ["FILE"] "write the report as JSON"
            => |c, v| c.json = Some(v.text.into());
    }
}

args! {
    /// Arguments of `lotus generate`.
    pub struct GenerateArgs: GENERATE {
        kind: String, "<rmat|ba|er|ws>" "kind (rmat|ba|er|ws)" => |c, v| c.kind = v.text.into();
        scale: u32, "--scale" | "-s" ["S"] "log2 of the vertex count (required)"
            => |c, v| c.scale = v.num()?;
        edge_factor: u32, "--edge-factor" | "-e" ["F" = "16"] "edges per vertex"
            => |c, v| c.edge_factor = v.num()?;
        seed: u64, "--seed" ["X" = "42"] "generator seed" => |c, v| c.seed = v.num()?;
        params: String, "--params" ["social|web|mild" = "social"] "R-MAT parameter preset"
            => |c, v| c.params = v.one_of(&["social", "web", "mild"], "params preset")?;
        output: String, "--output" | "-o" ["FILE"] "output path, binary if .lotg (required)"
            => |c, v| c.output = v.text.into();
    }
}

args! {
    /// Arguments of `lotus convert`.
    pub struct ConvertArgs: CONVERT {
        input: String, "<input>" "input path" => |c, v| c.input = v.text.into();
        output: String, "<output>" "output path" => |c, v| c.output = v.text.into();
        strict: bool, "--strict" "reject malformed edge-list lines instead of warning"
            => |c, _| c.strict = true;
    }
}

args! {
    /// Arguments of `lotus check`.
    pub struct CheckArgs: CHECK {
        input: String, "<graph>" "graph path" => |c, v| c.input = v.text.into();
        hubs: Option<u32>, "--hubs" ["N"] "fixed hub count for the LOTUS structure checks"
            => |c, v| c.hubs = Some(v.num()?);
        differential: bool, "--differential" "also cross-check every algorithm's count"
            => |c, _| c.differential = true;
    }
}

args! {
    /// Arguments of a `lotus bench` suite run.
    pub struct BenchRunArgs: BENCH {
        suite: String, "--suite" | "-s" ["ci|small|full" = "ci"] "suite to run"
            => |c, v| c.suite = v.text.into();
        json: Option<String>, "--json" | "-j" ["FILE"] "write the BENCH.json artifact"
            => |c, v| c.json = Some(v.text.into());
        threads: Option<usize>, "--threads" ["N"] "counting pool size (default: one per core)"
            => |c, v| c.threads = Some(v.at_least_one()?);
    }
}

args! {
    /// Arguments of `lotus bench compare`.
    pub struct BenchCompareArgs: COMPARE {
        baseline: String, "<baseline.json>" "baseline path" => |c, v| c.baseline = v.text.into();
        current: String, "<current.json>" "current path" => |c, v| c.current = v.text.into();
        tolerance: f64, "--tolerance" | "-t" ["F" = "0.25"] "allowed wall-time growth (0.25 = +25%)"
            => |c, v| c.tolerance = v.non_negative("fraction (0.25 = +25%)")?;
    }
}

args! {
    /// Arguments of `lotus serve recover`.
    pub struct ServeRecoverArgs: RECOVER {
        data_dir: String, "<data-dir>" "data directory" => |c, v| c.data_dir = v.text.into();
        dry_run: bool, "--dry-run" "report only: quarantine and compact nothing"
            => |c, _| c.dry_run = true;
        json: Option<String>, "--json" | "-j" ["FILE"] "write the recovery report"
            => |c, v| c.json = Some(v.text.into());
    }
}

/// `cluster shard`'s flags: `--coordinator`, then every `serve` flag.
const SHARD: &[Flag<ClusterShardArgs>] = flags! {
    "--coordinator" ["ADDR"] "coordinator to join once listening"
        => |c, v| c.coordinator = Some(v.text.into());
    "--bind" | "-b" ["ADDR"] "address to bind (default 127.0.0.1)"
        => |c, v| c.serve.bind = v.text.into();
    "--port" | "-p" ["P"] "TCP port (default 0: an ephemeral port)"
        => |c, v| c.serve.port = v.num()?;
    "--workers" | "-w" ["N"] "worker threads (default: one per core)"
        => |c, v| c.serve.workers = v.num()?;
    "--queue" | "-q" ["N"] "admission queue slots (default: 4 x workers)"
        => |c, v| c.serve.queue_capacity = v.num()?;
    "--mem-budget" ["SIZE"] "graph registry budget (default 512m)"
        => |c, v| c.serve.budget = v.budget()?;
    "--preload" ["NAME=SPEC"] "build a graph before accepting (repeatable)"
        => |c, v| c.serve.preload.push(v.preload()?);
    "--data-dir" ["DIR"] "persist registered graphs in DIR"
        => |c, v| c.serve.data_dir = Some(v.text.into());
    "--snapshot-interval" ["SECS"] "compact the journal every SECS"
        => |c, v| c.serve.snapshot_interval = Some(Duration::from_secs(v.num()?));
    "--event-threads" ["N"] "event-loop threads (default: cores/4, max 4)"
        => |c, v| c.serve.event_threads = v.num()?;
    "--max-conns" ["N"] "open-connection cap (default 4096)" => |c, v| c.serve.max_conns = v.num()?;
};

/// `serve`'s flags: the shard table without `--coordinator`.
const SERVE: &[Flag<ClusterShardArgs>] = SHARD.split_at(1).1;

const CLUSTER: &[Flag<ClusterConfig>] = flags! {
    "--bind" | "-b" ["ADDR"] "address to bind (default 127.0.0.1)" => |c, v| c.bind = v.text.into();
    "--port" | "-p" ["P"] "TCP port (default 0: an ephemeral port)" => |c, v| c.port = v.num()?;
    "--shard" ["ADDR"] "shard daemon to join at startup (repeatable)"
        => |c, v| c.shards.push(v.text.into());
    "--data-dir" ["DIR"] "journal the shard map in DIR" => |c, v| c.data_dir = Some(v.text.into());
    "--deadline-ms" | "-d" ["MS"] "fan-out deadline of a request without one (default 10000)"
        => |c, v| c.default_deadline = Duration::from_millis(v.num()?);
    "--allow-partial" "answer a partial sum when a shard is down" => |c, _| c.allow_partial = true;
    "--retry-seed" ["S"] "seed of the shard-dial retry backoff" => |c, v| c.retry_seed = v.num()?;
};

args! {
    /// `query`'s target: address, action, deadline and vertex range of
    /// the request it builds; the action's own arguments follow it.
    struct QueryArgv: QUERY {
        addr: String, "<addr>" "daemon address" => |q, v| q.addr = v.text.into();
        action: String, "<action>" "action" => |q, v| q.action = v.text.into();
        deadline_ms: u64, "--deadline-ms" | "-d" ["MS"] "deadline of count, per-vertex and kclique"
            => |q, v| q.deadline_ms = v.num()?;
        range: Option<(u32, u32)>, "--range" | "-r" ["A..B"] "vertex span of per-vertex"
            => |q, v| q.range = Some(v.range()?);
    }
}

const LOADGEN: &[Flag<LoadgenArgs>] = flags! {
    "<addr>" "daemon address" => |c, v| c.config.addr = v.text.into();
    "--suite" | "-s" ["ci"] "named preset, recorded in the artifact"
        => |c, v| c.suite = v.one_of(&["ci"], "loadgen suite")?;
    "--connections" | "-c" ["N"] "concurrent connections (default 4)"
        => |c, v| c.config.connections = v.num::<usize>()?.max(1);
    "--requests" | "-n" ["M"] "requests per connection (default 50)"
        => |c, v| c.config.requests = v.num()?;
    "--seed" ["S"] "request-mix and retry seed (default 42)" => |c, v| c.config.seed = v.num()?;
    "--graph" | "-g" ["SPEC"] "graph the run loads and queries (default rmat:9:8:7)"
        => |c, v| c.config.graph = v.text.into();
    "--deadline-ms" | "-d" ["MS"] "deadline of every counting request"
        => |c, v| c.config.deadline_ms = v.num()?;
    "--json" | "-j" ["FILE"] "write the BENCH-schema artifact"
        => |c, v| c.json = Some(v.text.into());
    "--pipeline" ["P"] "requests in flight per connection (default 1)"
        => |c, v| c.config.pipeline = v.at_least_one()?;
    "--cluster" "target is a coordinator: shard-safe mix, cluster section"
        => |c, _| c.config.cluster = true;
};

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
    Serve(ServeConfig),
    /// `lotus serve recover`: offline durability-state inspection.
    ServeRecover(ServeRecoverArgs),
    /// `lotus cluster serve`: the fan-out coordinator daemon.
    ClusterServe(ClusterConfig),
    /// `lotus cluster shard`: a shard daemon, optionally self-registering.
    ClusterShard(ClusterShardArgs),
    /// `lotus query`.
    Query(QueryArgs),
    /// `lotus loadgen`.
    Loadgen(LoadgenArgs),
    /// `lotus help`.
    Help,
}

/// Arguments of `lotus analyze`: a graph analysis or one of the
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

/// Arguments of `lotus bench`.
#[derive(Debug, Clone, PartialEq)]
pub enum BenchArgs {
    /// Run a named suite, optionally writing `BENCH.json`.
    Run(BenchRunArgs),
    /// Diff two `BENCH.json` artifacts and gate on regressions.
    Compare(BenchCompareArgs),
}

/// Arguments of `lotus cluster shard`: a full serve daemon plus an
/// optional coordinator to self-register with once bound.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClusterShardArgs {
    /// The underlying daemon configuration (same flags as `lotus serve`).
    pub serve: ServeConfig,
    /// Coordinator address to send `ShardJoin` to (`--coordinator`).
    pub coordinator: Option<String>,
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

/// Arguments of `lotus loadgen`: the run, plus how its artifact is
/// labelled and where it goes.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenArgs {
    /// The run: the `ci` preset with the given flags applied.
    pub config: LoadgenConfig,
    /// Suite name the artifact records (`ci`, or `custom` by default).
    pub suite: String,
    /// Where to write the BENCH-schema `serve` artifact, if anywhere.
    pub json: Option<String>,
}

/// Parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}\n\n{}", self.0, usage())
    }
}

fn parse_num<T: FromStr>(flag: &str, value: &str) -> Result<T, ParseError> {
    value
        .parse()
        .map_err(|_| ParseError(format!("invalid value '{value}' for {flag}")))
}

fn err<T>(message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError(message.into()))
}

fn unexpected<T>(arg: &str) -> Result<T, ParseError> {
    err(format!("unexpected argument '{arg}'"))
}

/// What [`read`] leaves: words past the declared positionals, and the
/// long spelling of every flag given.
#[derive(Default)]
struct Rest<'a> {
    words: Vec<&'a str>,
    seen: Vec<&'static str>,
}

/// Parses `argv` against one verb's rows, applying the defaults and then
/// each row given to `target`. Names `verb` when a positional is missing.
fn read<'a, T>(
    verb: &str,
    target: &mut T,
    rows: &[Flag<T>],
    argv: &[&'a str],
) -> Result<Rest<'a>, ParseError> {
    for row in rows.iter().filter(|r| !r.default.is_empty()) {
        row.apply(target, row.long, row.default)?;
    }
    let mut positionals = rows.iter().filter(|r| r.is_positional());
    let mut rest = Rest::default();
    let mut it = argv.iter().copied();
    while let Some(arg) = it.next() {
        let flag = rows
            .iter()
            .find(|r| !r.is_positional() && (r.long == arg || r.short == Some(arg)));
        match flag {
            Some(row) if row.value.is_empty() => row.apply(target, arg, "")?,
            Some(row) => {
                let text = it.next();
                let text = text.ok_or_else(|| ParseError(format!("{arg} requires a value")))?;
                row.apply(target, arg, text)?;
            }
            None if arg.starts_with('-') => return unexpected(arg),
            None => match positionals.next() {
                Some(row) => row.apply(target, arg, arg)?,
                None => rest.words.push(arg),
            },
        }
        rest.seen.extend(flag.map(|row| row.long));
    }
    match positionals.next() {
        Some(missing) => err(format!("{verb}: missing {}", missing.help)),
        None => Ok(rest),
    }
}

/// Parses a verb that takes nothing past its table.
fn only<T: Default>(verb: &str, rows: &[Flag<T>], argv: &[&str]) -> Result<T, ParseError> {
    let mut target = T::default();
    match read(verb, &mut target, rows, argv)?.words.first() {
        Some(extra) => unexpected(extra),
        None => Ok(target),
    }
}

/// Parses an argument vector (without the program name).
///
/// # Errors
/// Returns a [`ParseError`] naming the first unknown command, unknown
/// flag, or invalid value.
pub fn parse(argv: &[&str]) -> Result<Command, ParseError> {
    let (&verb, rest) = argv
        .split_first()
        .ok_or_else(|| ParseError("missing subcommand".into()))?;
    let sub = rest.first().copied();
    let tail = rest.get(1..).unwrap_or_default();
    Ok(match (verb, sub) {
        ("help" | "--help" | "-h", _) => Command::Help,
        ("count", _) => Command::Count(only(verb, COUNT, rest)?),
        ("analyze", Some("lint")) => Command::Analyze(AnalyzeArgs::Lint(only(verb, LINT, tail)?)),
        ("analyze", Some("locks")) => {
            Command::Analyze(AnalyzeArgs::Locks(only(verb, LOCKS, tail)?))
        }
        ("analyze", Some("race")) => Command::Analyze(AnalyzeArgs::Race(only(verb, RACE, tail)?)),
        // Bare `analyze <path>` keeps working; `analyze graph <path>` is
        // the explicit spelling.
        ("analyze", Some("graph")) => {
            Command::Analyze(AnalyzeArgs::Graph(only(verb, ANALYZE, tail)?))
        }
        ("analyze", _) => Command::Analyze(AnalyzeArgs::Graph(only(verb, ANALYZE, rest)?)),
        ("generate", _) => {
            let mut a = GenerateArgs::default();
            let rest = read(verb, &mut a, GENERATE, rest)?;
            if let Some(extra) = rest.words.first() {
                return unexpected(extra);
            }
            if !rest.seen.contains(&"--scale") {
                return err("generate: --scale required");
            }
            if !rest.seen.contains(&"--output") {
                return err("generate: -o <file> required");
            }
            // The generators panic below their smallest graph, and a scale
            // past 31 overflows the u32 vertex ids.
            let min_scale = match a.kind.as_str() {
                "rmat" => 0,
                "ba" | "er" => 1,
                "ws" => 2,
                other => return err(format!("unknown generator '{other}'")),
            };
            if !(min_scale..=31).contains(&a.scale) {
                return err(format!(
                    "generate {}: --scale must be between {min_scale} and 31",
                    a.kind
                ));
            }
            Command::Generate(a)
        }
        ("convert", _) => Command::Convert(only(verb, CONVERT, rest)?),
        ("check", _) => Command::Check(only(verb, CHECK, rest)?),
        ("bench", Some("compare")) => {
            Command::Bench(BenchArgs::Compare(only("bench compare", COMPARE, tail)?))
        }
        ("bench", _) => Command::Bench(BenchArgs::Run(only(verb, BENCH, rest)?)),
        ("serve", Some("recover")) => Command::ServeRecover(only("serve recover", RECOVER, tail)?),
        ("serve", _) => Command::Serve(only::<ClusterShardArgs>(verb, SERVE, rest)?.serve),
        ("query", _) => {
            let mut q = QueryArgv {
                deadline_ms: NO_DEADLINE,
                ..QueryArgv::default()
            };
            let mut words = read(verb, &mut q, QUERY, rest)?.words.into_iter();
            let QueryArgv {
                addr,
                action,
                deadline_ms,
                range,
            } = q;
            let mut need = |what: &str| {
                let word = words.next().map(str::to_string);
                word.ok_or_else(|| ParseError(format!("query {action}: missing {what}")))
            };
            let request = match action.as_str() {
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
                other => return err(format!("unknown query action '{other}'")),
            };
            if range.is_some() && !matches!(request, Request::PerVertex { .. }) {
                return err("--range only applies to per-vertex");
            }
            if let Some(extra) = words.next() {
                return unexpected(extra);
            }
            Command::Query(QueryArgs { addr, request })
        }
        ("loadgen", _) => {
            let mut a = LoadgenArgs {
                config: LoadgenConfig::ci_suite(""),
                suite: "custom".into(),
                json: None,
            };
            if let Some(extra) = read(verb, &mut a, LOADGEN, rest)?.words.first() {
                return unexpected(extra);
            }
            Command::Loadgen(a)
        }
        ("cluster", Some("serve")) => Command::ClusterServe(only(verb, CLUSTER, tail)?),
        ("cluster", Some("shard")) => Command::ClusterShard(only(verb, SHARD, tail)?),
        // Same wire protocol as a single daemon: alias.
        ("cluster", Some("query")) => return parse(&[&["query"], tail].concat()),
        ("cluster", Some(other)) => return err(format!("unknown cluster verb '{other}'")),
        ("cluster", None) => return err("cluster: missing verb (serve|shard|query)"),
        (other, _) => return err(format!("unknown subcommand '{other}'")),
    })
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
            Command::Serve(ServeConfig {
                bind: "127.0.0.1".into(),
                port: 0,
                workers: 0,
                queue_capacity: 0,
                budget: MemoryBudget::from_bytes(512 << 20),
                preload: vec![],
                data_dir: None,
                snapshot_interval: None,
                event_threads: 0,
                max_conns: 0,
                ..ServeConfig::default()
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
                assert_eq!(a.queue_capacity, 32);
                assert_eq!(a.budget, MemoryBudget::from_bytes(1 << 30));
                assert_eq!(
                    a.preload,
                    vec![
                        ("g".into(), "rmat:9:8:7".into()),
                        ("h".into(), "er:128:512:3".into())
                    ]
                );
                assert_eq!(a.data_dir, Some("/tmp/lotus-data".into()));
                assert_eq!(a.snapshot_interval, Some(Duration::from_secs(30)));
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
            Command::ClusterServe(ClusterConfig {
                bind: "127.0.0.1".into(),
                port: 0,
                shards: vec!["a:1".into(), "b:2".into()],
                data_dir: Some("/var/lotus".into()),
                default_deadline: Duration::from_millis(2500),
                allow_partial: true,
                retry_seed: 9,
            })
        );
        assert_eq!(
            parse(&["cluster", "serve"]).unwrap(),
            Command::ClusterServe(ClusterConfig {
                bind: "127.0.0.1".into(),
                port: 0,
                shards: vec![],
                data_dir: None,
                allow_partial: false,
                ..ClusterConfig::default()
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
            Command::Loadgen(LoadgenArgs {
                config: LoadgenConfig::ci_suite("a:1"),
                suite: "ci".into(),
                json: None,
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
                assert_eq!(a.config.connections, 8);
                assert_eq!(a.config.requests, 100);
                assert_eq!(a.config.seed, 7);
                assert_eq!(a.config.graph, "er:256:1024:5");
                assert_eq!(a.config.deadline_ms, 500);
                assert_eq!(a.json.as_deref(), Some("serve.json"));
                assert_eq!(a.config.pipeline, 4);
                assert!(!a.config.cluster);
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

    /// Parses `generate <kind> --scale <scale>`; the generators panic on
    /// a scale outside the kind's range, so parsing must refuse it.
    fn generate_at(kind: &str, scale: &str) -> Result<Command, ParseError> {
        parse(&["generate", kind, "--scale", scale, "-o", "g.lotg"])
    }

    #[test]
    fn generate_rejects_ba_below_two_vertices() {
        let err = generate_at("ba", "0").unwrap_err();
        assert!(
            err.0.contains("--scale must be between 1 and 31"),
            "{}",
            err.0
        );
        assert!(generate_at("ba", "1").is_ok());
    }

    #[test]
    fn generate_rejects_er_below_two_vertices() {
        assert!(generate_at("er", "0").is_err());
        assert!(generate_at("er", "1").is_ok());
    }

    #[test]
    fn generate_rejects_ws_without_room_for_a_ring() {
        assert!(generate_at("ws", "1").is_err());
        assert!(generate_at("ws", "2").is_ok());
    }

    #[test]
    fn generate_rejects_vertex_ids_past_u32() {
        assert!(generate_at("rmat", "32").is_err());
        assert!(generate_at("rmat", "31").is_ok());
        assert!(generate_at("rmat", "0").is_ok());
    }

    /// `lotus help` lists every row of every table under its verb.
    #[test]
    fn usage_lists_every_row_under_its_verb() {
        fn listed<T>(usage: &str, verb: &str, rows: &[Flag<T>]) {
            let section = usage
                .split("\n  lotus ")
                .find(|s| {
                    s.strip_prefix(verb)
                        .is_some_and(|r| r.starts_with([' ', '\n']))
                })
                .unwrap_or_else(|| panic!("no `lotus {verb}` in usage"));
            for row in rows {
                let spelled = row
                    .short
                    .map_or(row.long.into(), |s| format!("{s}, {}", row.long));
                assert!(section.contains(&spelled), "`lotus {verb}` lacks {spelled}");
            }
        }
        let usage = usage();
        listed(&usage, "count", COUNT);
        listed(&usage, "analyze [graph]", ANALYZE);
        listed(&usage, "analyze lint", LINT);
        listed(&usage, "analyze race", RACE);
        listed(&usage, "analyze locks", LOCKS);
        listed(&usage, "generate", GENERATE);
        listed(&usage, "convert", CONVERT);
        listed(&usage, "check", CHECK);
        listed(&usage, "bench", BENCH);
        listed(&usage, "bench compare", COMPARE);
        listed(&usage, "serve", SERVE);
        listed(&usage, "serve recover", RECOVER);
        listed(&usage, "cluster serve", CLUSTER);
        listed(&usage, "cluster shard", &SHARD[..1]);
        listed(&usage, "query", QUERY);
        // The hand-written usage text left out `loadgen --deadline-ms`.
        listed(&usage, "loadgen", LOADGEN);
    }
}
