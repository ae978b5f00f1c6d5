//! Pins the `lotus` command-line surface: every invocation in the CI
//! workflows and the README, and one argv per short alias, with the
//! command each must parse to.
//!
//! Verbs that parse into a daemon or load-generator configuration
//! (`serve`, `cluster serve`, `cluster shard`, `loadgen`) are pinned
//! against the same command spelled another way (long flags, another
//! order, defaults written out), and each flag they use is shown to
//! change the parsed command; the parser's unit tests pin the values.

use lotus_cli::{parse, Command};

fn cmd(line: &str) -> Command {
    let argv: Vec<&str> = line.split_whitespace().collect();
    parse(&argv).unwrap_or_else(|e| panic!("`lotus {line}` must parse: {e}"))
}

/// Each argv the workflows and README run (a daemon address is `A`),
/// then the `Debug` form of the command it parses to. `#` starts a
/// comment line.
const PINNED: &str = r#"
# ci.yml
generate rmat --scale 12 --seed 7 -o ci.lotg
Generate(GenerateArgs { kind: "rmat", scale: 12, edge_factor: 16, seed: 7, params: "social", output: "ci.lotg" })
check ci.lotg --differential
Check(CheckArgs { input: "ci.lotg", hubs: None, differential: true })
analyze lint --json analyze.json --deny-stale
Analyze(Lint(AnalyzeLintArgs { waivers: None, json: Some("analyze.json"), deny_stale: true }))
analyze lint
Analyze(Lint(AnalyzeLintArgs { waivers: None, json: None, deny_stale: false }))
analyze locks --json lock-graph.json
Analyze(Locks(AnalyzeLocksArgs { waivers: None, json: Some("lock-graph.json") }))
analyze race --seeds 7,42,24301 --json race.json
Analyze(Race(AnalyzeRaceArgs { seeds: [7, 42, 24301], json: Some("race.json") }))
bench --suite ci --json bench.json
Bench(Run(BenchRunArgs { suite: "ci", json: Some("bench.json"), threads: None }))
bench --suite ci --threads 1 --json bench.json
Bench(Run(BenchRunArgs { suite: "ci", json: Some("bench.json"), threads: Some(1) }))
bench compare results/bench-baseline.json bench.json --tolerance 0.25
Bench(Compare(BenchCompareArgs { baseline: "results/bench-baseline.json", current: "bench.json", tolerance: 0.25 }))
bench compare results/serve-baseline.json serve-load.json --tolerance 3.0
Bench(Compare(BenchCompareArgs { baseline: "results/serve-baseline.json", current: "serve-load.json", tolerance: 3.0 }))
query A drain
Query(QueryArgs { addr: "A", request: Drain })
query A ping
Query(QueryArgs { addr: "A", request: Ping })
query A stats
Query(QueryArgs { addr: "A", request: Stats })
query A shard-stat
Query(QueryArgs { addr: "A", request: ShardStat })
query A load g rmat:9:8:7
Query(QueryArgs { addr: "A", request: LoadGraph { name: "g", spec: "rmat:9:8:7" } })
query A load keep rmat:9:8:7
Query(QueryArgs { addr: "A", request: LoadGraph { name: "keep", spec: "rmat:9:8:7" } })
query A load victim rmat:9:8:3
Query(QueryArgs { addr: "A", request: LoadGraph { name: "victim", spec: "rmat:9:8:3" } })
query A count g
Query(QueryArgs { addr: "A", request: Count { name: "g", deadline_ms: 18446744073709551615 } })
query A count g --deadline-ms 3000
Query(QueryArgs { addr: "A", request: Count { name: "g", deadline_ms: 3000 } })
serve recover data --json recovery.json
ServeRecover(ServeRecoverArgs { data_dir: "data", dry_run: false, json: Some("recovery.json") })
serve recover data --dry-run
ServeRecover(ServeRecoverArgs { data_dir: "data", dry_run: true, json: None })
# soak.yml
serve recover data --dry-run --json artifacts/mid-soak-recovery.json
ServeRecover(ServeRecoverArgs { data_dir: "data", dry_run: true, json: Some("artifacts/mid-soak-recovery.json") })
# README.md
generate rmat --scale 18 --params web -o crawl.lotg
Generate(GenerateArgs { kind: "rmat", scale: 18, edge_factor: 16, seed: 42, params: "web", output: "crawl.lotg" })
count crawl.lotg --per-vertex
Count(CountArgs { input: "crawl.lotg", algorithm: "lotus", hubs: None, per_vertex: true, timeout: None, mem_budget: None, strict: false, threads: None })
analyze crawl.lotg
Analyze(Graph(AnalyzeGraphArgs { input: "crawl.lotg", hub_fraction: 0.01 }))
count mygraph.txt --algorithm adaptive
Count(CountArgs { input: "mygraph.txt", algorithm: "adaptive", hubs: None, per_vertex: false, timeout: None, mem_budget: None, strict: false, threads: None })
check crawl.lotg --differential
Check(CheckArgs { input: "crawl.lotg", hubs: None, differential: true })
analyze lint --json analyze.json
Analyze(Lint(AnalyzeLintArgs { waivers: None, json: Some("analyze.json"), deny_stale: false }))
count crawl.lotg --timeout 30
Count(CountArgs { input: "crawl.lotg", algorithm: "lotus", hubs: None, per_vertex: false, timeout: Some(30.0), mem_budget: None, strict: false, threads: None })
count crawl.lotg --mem-budget 512m
Count(CountArgs { input: "crawl.lotg", algorithm: "lotus", hubs: None, per_vertex: false, timeout: None, mem_budget: Some(MemoryBudget { bytes: 536870912 }), strict: false, threads: None })
count mygraph.txt --strict
Count(CountArgs { input: "mygraph.txt", algorithm: "lotus", hubs: None, per_vertex: false, timeout: None, mem_budget: None, strict: true, threads: None })
count graph.lotg --threads 8
Count(CountArgs { input: "graph.lotg", algorithm: "lotus", hubs: None, per_vertex: false, timeout: None, mem_budget: None, strict: false, threads: Some(8) })
bench --suite ci --threads 4
Bench(Run(BenchRunArgs { suite: "ci", json: None, threads: Some(4) }))
query A count crawl
Query(QueryArgs { addr: "A", request: Count { name: "crawl", deadline_ms: 18446744073709551615 } })
query A per-vertex crawl --range 0..64
Query(QueryArgs { addr: "A", request: PerVertex { name: "crawl", start: 0, end: 64, deadline_ms: 18446744073709551615 } })
query A kclique crawl 4 --deadline-ms 5000
Query(QueryArgs { addr: "A", request: KClique { name: "crawl", k: 4, deadline_ms: 5000 } })
query A count rmat:12:16:7
Query(QueryArgs { addr: "A", request: Count { name: "rmat:12:16:7", deadline_ms: 18446744073709551615 } })
serve recover /var/lib/lotus --dry-run
ServeRecover(ServeRecoverArgs { data_dir: "/var/lib/lotus", dry_run: true, json: None })
query A load g rmat:12:16:7
Query(QueryArgs { addr: "A", request: LoadGraph { name: "g", spec: "rmat:12:16:7" } })
cluster query A shard-stat
Query(QueryArgs { addr: "A", request: ShardStat })
"#;

#[test]
fn workflow_and_readme_invocations_parse_to_their_commands() {
    let lines: Vec<&str> = PINNED
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    for pair in lines.chunks(2) {
        assert_eq!(format!("{:?}", cmd(pair[0])), pair[1], "lotus {}", pair[0]);
    }
}

/// Pairs of argv that must parse to the same command (`==`) or to
/// different ones (`!=`). The config-parsing verbs' workflow and README
/// argv each sit beside another spelling of the same command; each flag
/// they use changes the command; each short alias equals its long flag.
const SPELLINGS: &str = "
# ci.yml
serve --port 0 == serve --max-conns 0 --event-threads 0 -q 0 -w 0 -b 127.0.0.1 -p 0
serve --port 0 --event-threads 2 --max-conns 2048 --queue 1024 == serve -q 1024 --max-conns 2048 --event-threads 2 -p 0
serve --port 0 --data-dir data == serve --data-dir data
cluster shard --port 0 --workers 2 == cluster shard -w 2 -p 0 -b 127.0.0.1
cluster shard --port 0 --workers 2 --coordinator 127.0.0.1:7070 == cluster shard --coordinator 127.0.0.1:7070 -w 2
cluster serve --shard a:1 --shard b:2 == cluster serve -p 0 --shard a:1 -b 127.0.0.1 --shard b:2
loadgen a:1 --suite ci --json serve.json == loadgen -j serve.json a:1 -s ci
loadgen a:1 --connections 1024 --requests 4 --pipeline 4 --graph rmat:9:8:7 --json l.json == loadgen a:1 -j l.json -g rmat:9:8:7 --pipeline 4 -n 4 -c 1024
loadgen a:1 --suite ci --cluster --json c.json == loadgen --cluster -j c.json -s ci a:1
# soak.yml
serve --port 0 --data-dir d --event-threads 2 --max-conns 2048 --snapshot-interval 30 == serve --snapshot-interval 30 --max-conns 2048 --event-threads 2 --data-dir d
loadgen a:1 --connections 256 --requests 32 --pipeline 4 --seed 3 --graph rmat:9:8:7 --json s.json == loadgen a:1 --seed 3 -g rmat:9:8:7 -j s.json --pipeline 4 -n 32 -c 256
# README.md
serve --port 0 --mem-budget 1g --preload crawl=path:crawl.lotg == serve --preload crawl=path:crawl.lotg --mem-budget 1g
serve --port 0 --data-dir /var/lib/lotus --snapshot-interval 30 == serve --snapshot-interval 30 --data-dir /var/lib/lotus -p 0
cluster shard --port 7101 == cluster shard -p 7101
cluster serve --shard a:1 --shard b:2 --shard c:3 --data-dir /var/lib/lotus-coord == cluster serve --data-dir /var/lib/lotus-coord --shard a:1 --shard b:2 --shard c:3
cluster shard --port 7104 --coordinator 127.0.0.1:PORT == cluster shard --coordinator 127.0.0.1:PORT -p 7104
loadgen 127.0.0.1:PORT --connections 1024 --requests 4 --pipeline 4 --json serve.json == loadgen 127.0.0.1:PORT -c 1024 -n 4 --pipeline 4 -j serve.json
loadgen a:1 --cluster --suite ci --json cluster.json == loadgen a:1 -s ci -j cluster.json --cluster
# Each flag those argv set, with a value other than its default.
serve != serve --port 7101
serve != serve --workers 2
serve != serve --event-threads 2
serve != serve --max-conns 2048
serve != serve --queue 1024
serve != serve --data-dir d
serve != serve --snapshot-interval 30
serve != serve --mem-budget 1g
serve != serve --preload crawl=path:crawl.lotg
cluster shard != cluster shard --workers 2
cluster shard != cluster shard --port 7101
cluster shard != cluster shard --coordinator c:1
cluster serve != cluster serve --shard a:1
cluster serve != cluster serve --data-dir d
loadgen a:1 != loadgen a:1 --suite ci
loadgen a:1 != loadgen a:1 --json s.json
loadgen a:1 != loadgen a:1 --cluster
loadgen a:1 != loadgen a:1 --connections 1024
loadgen a:1 != loadgen a:1 --requests 4
loadgen a:1 != loadgen a:1 --pipeline 4
loadgen a:1 != loadgen a:1 --seed 3
loadgen a:1 != loadgen a:1 --graph rmat:12:16:7
loadgen a:1 != loadgen b:2
# Short aliases, and that each lands on a field, not on a default.
count g -a forward == count g --algorithm forward
analyze lint -w w.json -j l.json == analyze lint --waivers w.json --json l.json
analyze locks -w w.json -j l.json == analyze locks --waivers w.json --json l.json
analyze race -s 7,42 -j r.json == analyze race --seeds 7,42 --json r.json
generate ba -s 5 -e 4 -o g.lotg == generate ba --scale 5 --edge-factor 4 --output g.lotg
bench -s small -j b.json == bench --suite small --json b.json
bench compare a.json b.json -t 0.5 == bench compare a.json b.json --tolerance 0.5
serve recover d -j r.json == serve recover d --json r.json
serve -b 0.0.0.0 -p 7070 -w 8 -q 32 == serve --bind 0.0.0.0 --port 7070 --workers 8 --queue 32
cluster serve -b 0.0.0.0 -p 7070 -d 250 == cluster serve --bind 0.0.0.0 --port 7070 --deadline-ms 250
cluster shard -b 0.0.0.0 -p 7071 -w 2 -q 8 == cluster shard --bind 0.0.0.0 --port 7071 --workers 2 --queue 8
query a:1 per-vertex g -r 2..9 -d 40 == query a:1 per-vertex g --range 2..9 --deadline-ms 40
loadgen a:1 -s ci -c 8 -n 9 -g er:64:128:1 -d 500 -j l.json == loadgen a:1 --suite ci --connections 8 --requests 9 --graph er:64:128:1 --deadline-ms 500 --json l.json
count g -a forward != count g
cluster serve -d 250 != cluster serve
loadgen a:1 -d 500 != loadgen a:1
query a:1 count g -d 40 != query a:1 count g
";

#[test]
fn other_spellings_parse_alike_and_flags_take_effect() {
    for line in SPELLINGS
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        match line.split_once(" == ") {
            Some((a, b)) => assert_eq!(cmd(a), cmd(b), "lotus {a} vs lotus {b}"),
            None => {
                let (a, b) = line.split_once(" != ").expect("a == or != pair");
                assert_ne!(cmd(a), cmd(b), "lotus {a} vs lotus {b}");
            }
        }
    }
}
