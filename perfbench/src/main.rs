//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints, one per line, the stamps of the run
//! (host cores, build profile, commit), every metric with its unit, any
//! failed output check, and finally one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! Exits 0 when every output check passed, 1 when one failed, and 2 on
//! bad arguments or inputs (printing no result).
//!
//! `--mini` runs miniature inputs and `--expect-digest HEX` demands a
//! report digest; both exist for the benchmark's own tests.

use std::fmt::Write as _;
use std::process::ExitCode;

use radar_perfbench::run::{self, Metric, Options, Outcome};
use radar_perfbench::workloads::{self, Kind, Scale};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload {} --seed N --seconds S --trace 0|1 [--mini] [--expect-digest HEX]",
                workloads::ALL.map(Kind::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} host_cores={} profile={} commit={}",
        opts.kind.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        commit(),
    );
    let outcome = match run::run(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for rep in &outcome.reps {
        println!("# rep {rep}");
    }
    println!("# report digest {:016x}", outcome.digest);
    for m in outcome.metrics.iter().chain(&outcome.extras) {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    for problem in &outcome.problems {
        println!("# check failed: {problem}");
    }
    println!("{}", result_json(&outcome));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut expect_digest = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--mini" {
            scale = Scale::Mini;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad --seconds {value:?}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            "--expect-digest" => {
                expect_digest = Some(
                    u64::from_str_radix(value, 16)
                        .map_err(|_| format!("bad --expect-digest {value:?}"))?,
                )
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Options {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
        expect_digest,
    })
}

/// The commit under test: `git rev-parse HEAD` where the checkout is a
/// repository, else a digest of the simulator's sources.
fn commit() -> String {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output();
    if let Ok(out) = git {
        if out.status.success() {
            return String::from_utf8_lossy(&out.stdout).trim().to_string();
        }
    }
    let mut files = Vec::new();
    collect_files(std::path::Path::new("crates"), &mut files);
    files.push("Cargo.lock".into());
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for path in &files {
        let Ok(bytes) = std::fs::read(path) else {
            continue;
        };
        for b in path.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("tree-{h:016x}")
}

fn collect_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(o: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.correct, o.attempted, o.failed
    );
    for (i, Metric { name, value, unit }) in o.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // Non-finite values are not JSON; the run has already failed its
        // checks on one, but the result line must stay parseable.
        let value = if value.is_finite() { *value } else { 0.0 };
        write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    s.push_str("}}");
    s
}
