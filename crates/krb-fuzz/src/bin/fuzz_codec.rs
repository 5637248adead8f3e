//! Deterministic codec fuzzer.
//!
//! ```text
//! fuzz_codec [--seed <dec|0xhex>] [--iters <n>]
//! ```
//!
//! Regenerates the seed corpus from the testbed, runs the mutation loop,
//! and prints the deterministic report. Exit status: 0 when no decoder
//! panicked, 1 when any input panicked, 2 on bad arguments.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), warn(clippy::unreachable, clippy::todo, clippy::unimplemented))]

use krb_fuzz::corpus::generate_all_seeds;
use krb_fuzz::harness::{run, FuzzConfig};
use std::process::ExitCode;

const DEFAULT_SEED: u64 = 0x5eed;
const DEFAULT_ITERS: u64 = 10_000;

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: fuzz_codec [--seed <dec|0xhex>] [--iters <n>]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut seed = DEFAULT_SEED;
    let mut iterations = DEFAULT_ITERS;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = match args.get(i + 1).and_then(|v| parse_u64(v)) {
            Some(v) => v,
            None => return usage(),
        };
        match args[i].as_str() {
            "--seed" => seed = value,
            "--iters" => iterations = value,
            _ => return usage(),
        }
        i += 2;
    }

    let seeds = generate_all_seeds();
    let report = run(&seeds, &FuzzConfig { seed, iterations });
    print!("{}", report.render(seed));
    if report.panics > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
