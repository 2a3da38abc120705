//! `dpc-e2e`: the repository's benchmark. One quiet, steady-state run per
//! workload, measured from outside through the crates' public functions.
//!
//! ```text
//! dpc-e2e --workload <name> --seed <n> [--seconds <s>] [--trace [0|1]]
//! dpc-e2e selfcheck [--seed <n>] [--seconds <s>]
//! dpc-e2e list
//! ```
//!
//! A run is a sequence of child processes (this same binary with
//! `--child`); the parent only waits, reduces and prints. See README.md.

mod child;
mod counters;
mod probe;
mod report;
mod stats;
mod trace;
mod workload;

use std::process::{Command, ExitCode, Stdio};

use report::{ChildRec, RunReport, END_TO_END};
use workload::Workload;

/// Children per untraced run: set-up and peak memory are medians over
/// them, and a bad process placement costs one third of the samples.
const CHILDREN: u32 = 3;
/// A traced run spends its time on traced rounds and probes instead.
const TRACED_CHILDREN: u32 = 2;
const TRACED_ROUNDS: u32 = 2;
/// What one round is sized to; `--seconds` buys rounds, never op counts.
const ROUND_TARGET_S: f64 = 0.65;
const DEFAULT_SECONDS: f64 = 10.0;
/// Last rounds' time per op over first rounds' that selfcheck accepts.
const DRIFT_OK: std::ops::RangeInclusive<f64> = 0.90..=1.10;

fn usage() -> ExitCode {
    eprintln!(
        "usage: dpc-e2e --workload <name> --seed <n> [--seconds <s>] [--trace [0|1]]\n       \
         dpc-e2e selfcheck [--seed <n>] [--seconds <s>]\n       dpc-e2e list"
    );
    ExitCode::from(2)
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| args.get(i + 1).ok_or(format!("{} needs a value", args[i]));
        match args[i].as_str() {
            "--workload" => {
                let name = value(i)?;
                out.workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload {name}"))?);
                i += 1;
            }
            "--seed" => {
                out.seed = value(i)?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?;
                i += 1;
            }
            "--seconds" => {
                out.seconds = value(i)?.parse().map_err(|_| "--seconds takes a number")?;
                if !(1.0..=60.0).contains(&out.seconds) {
                    return Err("--seconds must be within 1..60".into());
                }
                i += 1;
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    out.trace = false;
                    i += 1;
                }
                Some("1") => {
                    out.trace = true;
                    i += 1;
                }
                _ => out.trace = true,
            },
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    Ok(out)
}

/// Measured rounds per child that `seconds` of measurement buys.
fn rounds_for(seconds: f64) -> u32 {
    ((seconds / (CHILDREN as f64 * ROUND_TARGET_S)).round() as u32).clamp(2, 25)
}

/// Run one workload once: its children in sequence, parent idle.
fn run_workload(w: Workload, seed: u64, seconds: f64, trace: bool) -> Result<RunReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let rounds = rounds_for(seconds);
    let (children, measured, traced) = if trace {
        (
            TRACED_CHILDREN,
            (rounds - TRACED_ROUNDS).max(2),
            TRACED_ROUNDS,
        )
    } else {
        (CHILDREN, rounds, 0)
    };
    let mut recs = Vec::new();
    for c in 0..children {
        let probe = trace && c == 0;
        let output = Command::new(&exe)
            .arg("--child")
            .args([w.name(), &seed.to_string(), &c.to_string()])
            .args([&measured.to_string(), &traced.to_string()])
            .arg(if probe { "1" } else { "0" })
            // One malloc arena: peak RSS then does not depend on which
            // arena a DPU thread happens to be given (dfs_rw_8k otherwise
            // reads 73 or 117 MiB on the same seed).
            .env("MALLOC_ARENA_MAX", "1")
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawning child {c}: {e}"))?;
        if !output.status.success() {
            return Err(format!(
                "child {c} of {} exited with {}",
                w.name(),
                output.status
            ));
        }
        recs.push(ChildRec::parse(&String::from_utf8_lossy(&output.stdout))?);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(report::reduce(w.name(), seed, trace, &recs, nproc))
}

fn child_main(args: &[String]) -> ExitCode {
    let parsed = (|| -> Option<child::ChildArgs> {
        Some(child::ChildArgs {
            workload: Workload::from_name(args.first()?)?,
            seed: args.get(1)?.parse().ok()?,
            child: args.get(2)?.parse().ok()?,
            rounds: args.get(3)?.parse().ok()?,
            traced_rounds: args.get(4)?.parse().ok()?,
            probe: args.get(5)? == "1",
        })
    })();
    let Some(parsed) = parsed else {
        eprintln!("dpc-e2e: bad --child arguments {args:?}");
        return ExitCode::from(2);
    };
    match child::run(&parsed) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dpc-e2e child: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Every workload twice on this build, A then B; the relative difference
/// of each (workload, end-to-end metric) pair beside its bound.
fn selfcheck(seed: u64, seconds: f64) -> ExitCode {
    let mut bad = 0usize;
    println!(
        "{:<16} {:<22} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A", "B", "worse_by", "bound"
    );
    for w in Workload::ALL {
        let pair = (
            run_workload(w, seed, seconds, false),
            run_workload(w, seed, seconds, false),
        );
        let (a, b) = match pair {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                println!("{:<16} FAILED: {e}", w.name());
                bad += 1;
                continue;
            }
        };
        for r in [&a, &b] {
            if !r.correct {
                println!("{:<16} INCORRECT: {}", w.name(), r.why_incorrect.join("; "));
                bad += 1;
            }
        }
        for m in &END_TO_END {
            let (va, vb) = (a.end_to_end[m.name], b.end_to_end[m.name]);
            // How much worse B is than A, as a share of A; the driver
            // compares two sets of runs of one build the same way.
            let worse = match m.better {
                "higher" => (va - vb) / va,
                _ => (vb - va) / va,
            };
            let flag = if worse.abs() > m.bound {
                "  EXCEEDS"
            } else {
                ""
            };
            bad += (worse.abs() > m.bound) as usize;
            println!(
                "{:<16} {:<22} {:>14.4} {:>14.4} {:>+9.4} {:>7}{flag}",
                w.name(),
                m.name,
                va,
                vb,
                worse,
                m.bound
            );
        }
        // A run still warming up (or cooling down) is not steady state.
        let drift = (
            a.per_layer["bench.round_drift"],
            b.per_layer["bench.round_drift"],
        );
        let steady = [drift.0, drift.1].iter().all(|d| DRIFT_OK.contains(d));
        bad += !steady as usize;
        println!(
            "{:<16} {:<22} {:>14.4} {:>14.4} {:>9} {:>7}{}",
            w.name(),
            "bench.round_drift",
            drift.0,
            drift.1,
            "",
            format!("{}-{}", DRIFT_OK.start(), DRIFT_OK.end()),
            if steady { "" } else { "  EXCEEDS" }
        );
    }
    if bad == 0 {
        println!("selfcheck: every pair within its bound");
        ExitCode::SUCCESS
    } else {
        println!("selfcheck: {bad} failures");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--child") => return child_main(&args[1..]),
        Some("list") => {
            for w in Workload::ALL {
                println!("{:<16} {}", w.name(), w.why());
            }
            return ExitCode::SUCCESS;
        }
        Some("selfcheck") => {
            return match parse(&args[1..]) {
                Ok(a) if a.workload.is_none() => selfcheck(a.seed, a.seconds),
                Ok(_) => usage(),
                Err(e) => {
                    eprintln!("dpc-e2e: {e}");
                    usage()
                }
            };
        }
        _ => {}
    }
    let parsed = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dpc-e2e: {e}");
            return usage();
        }
    };
    let Some(w) = parsed.workload else {
        return usage();
    };
    match run_workload(w, parsed.seed, parsed.seconds, parsed.trace) {
        Ok(report) => {
            report.print();
            // The result line is the last line of standard output.
            println!("{}", report.json_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dpc-e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_and_bare_trace_forms_parse() {
        let a = parse(&args("--workload meta_mix --seed 9 --seconds 12 --trace 0"))
            .expect("driver form");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Some(Workload::MetaMix), 9, 12.0, false)
        );
        assert!(
            parse(&args("--workload meta_mix --seed 9 --seconds 12 --trace 1"))
                .expect("trace 1")
                .trace
        );
        assert!(
            parse(&args("--workload meta_mix --trace --seed 3"))
                .expect("bare trace")
                .trace
        );
        assert_eq!(
            parse(&args("--trace --seed 3"))
                .expect("seed after bare trace")
                .seed,
            3
        );
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--seconds 0")).is_err());
        assert!(parse(&args("--seed")).is_err());
        assert!(parse(&args("--bogus")).is_err());
    }

    #[test]
    fn seconds_buy_rounds() {
        assert_eq!(rounds_for(DEFAULT_SECONDS), 5);
        assert_eq!(rounds_for(1.0), 2);
        assert_eq!(rounds_for(60.0), 25);
    }
}
