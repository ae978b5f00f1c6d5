//! The LOTUS benchmark binary: runs one workload for one seed and prints
//! one JSON line with every metric, the answer checks, the machine and
//! the workload descriptors. `run.py` builds it twice (plain and with the
//! `trace` feature) and turns its line into the benchmark's result.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> [--trace-out <file>]
//! ```

mod count;
mod env;
mod openloop;
mod report;
mod schedule;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;

use lotus_telemetry::json::Json;

use crate::report::{unit_of, Outcome};
use crate::trace::Tracer;

/// Every workload, with how many times a run sets it up for `setup_s`.
/// A counting workload's graph takes seconds to generate and build; the
/// daemons set up in about 0.1 s.
const WORKLOADS: &[(&str, usize)] = &[
    ("count-skewed", 3),
    ("count-flat", 3),
    ("serve-mix", 9),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace_out: Option<String>,
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: bad value `{value}`"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace_out) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(number(&flag, &value)?),
            "--seconds" => seconds = Some(number(&flag, &value)?),
            "--trace-out" => trace_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace_out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(&(_, setups)) = WORKLOADS.iter().find(|(w, _)| *w == args.workload) else {
        eprintln!("perfbench: unknown workload `{}`", args.workload);
        return ExitCode::from(2);
    };
    // The `trace` build arms the telemetry counters; only it keeps spans.
    let tracer = Tracer::new(lotus_telemetry::enabled());
    let mut out = Outcome::default();
    let result = match args.workload.as_str() {
        "count-skewed" => {
            count::run(
                count::Input::Skewed,
                args.seed,
                args.seconds,
                setups,
                &tracer,
                &mut out,
            );
            Ok(())
        }
        "count-flat" => {
            count::run(
                count::Input::Flat,
                args.seed,
                args.seconds,
                setups,
                &tracer,
                &mut out,
            );
            Ok(())
        }
        _ => serve::run(args.seed, args.seconds, setups, &tracer, &mut out),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {}: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    if let Some(path) = &args.trace_out {
        if let Err(e) = std::fs::write(path, trace::to_json(&tracer.spans()).to_string()) {
            eprintln!("perfbench: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    let correct = out.check_failures.is_empty();
    let metrics = out
        .metrics
        .iter()
        .map(|m| {
            let entry = Json::Obj(vec![
                ("value".into(), Json::Float(m.value)),
                ("unit".into(), Json::Str(unit_of(m.name).to_string())),
                ("samples".into(), Json::Int(m.samples as i64)),
            ]);
            (m.name.to_string(), entry)
        })
        .collect();
    let record = Json::Obj(vec![
        ("workload".into(), Json::Str(args.workload.clone())),
        ("seed".into(), Json::Int(args.seed as i64)),
        ("seconds".into(), Json::Float(args.seconds)),
        ("traced".into(), Json::Bool(tracer.enabled())),
        ("setups".into(), Json::Int(setups as i64)),
        ("environment".into(), env::describe()),
        ("descriptors".into(), Json::Obj(out.descriptors)),
        (
            "check_failures".into(),
            Json::Arr(out.check_failures.iter().cloned().map(Json::Str).collect()),
        ),
    ]);
    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Int(out.attempted as i64)),
        ("failed".into(), Json::Int(out.failed as i64)),
        ("metrics".into(), Json::Obj(metrics)),
        ("record".into(), record),
    ]);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
