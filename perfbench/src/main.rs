//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//! `perfbench --list`
//!
//! Prints one JSON context line (configuration, rates, rung verdicts) and,
//! as the last line, the result: `correct`, `attempted`, `failed`, and the
//! end-to-end (`--trace 0`) or per-layer (`--trace 1`) metrics. Exits 3 if
//! a correctness check failed, 2 on a usage error. `--list` prints the
//! workload names `all` runs, one a line.

use std::process::ExitCode;

use perfbench::{run_workload, workloads};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
        workloads().join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--list"] {
        for name in workloads() {
            println!("{name}");
        }
        return ExitCode::SUCCESS;
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|&s| s >= 1),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds (>= 1) and --trace (0 or 1) are required");
    };
    let names = if workload == "all" {
        workloads()
    } else {
        vec![workload]
    };
    let mut correct = true;
    for name in &names {
        let Some(mut out) = run_workload(name, seed, seconds, trace) else {
            return usage(&format!("unknown workload {name}"));
        };
        out.context.insert(0, ("workload".into(), name.clone()));
        out.context.insert(1, ("seed".into(), seed.to_string()));
        out.context.insert(2, ("trace".into(), trace.to_string()));
        for v in &out.violations {
            eprintln!("perfbench: {name}: correctness check failed: {v}");
        }
        correct &= out.violations.is_empty();
        println!("{}", out.context_json());
        println!("{}", out.result_json());
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(3)
    }
}
