//! `stream_bench [--tasks 10000] [--workers 64] [--window 1024]
//!               [--mode streaming|buffered] [--epoch 0.05] [--seed 42]
//!               [--out spans.ndjson|canonical.txt]`
//!
//! Replay a synthetic N-task stream on the DES backend and report peak
//! RSS as one JSON line — the memory story behind the streaming trace
//! pipeline (see [`supersim_bench::stream_bench`]). CI's `trace-streaming`
//! job runs it under a 128 MiB address-space cap.

use std::process::exit;
use supersim_bench::stream_bench::StreamBench;

fn parse<T: std::str::FromStr>(key: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("bad value for --{key}: {value}");
        exit(2)
    })
}

fn main() {
    let mut bench = StreamBench::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let Some(key) = arg.strip_prefix("--") else {
            eprintln!("unexpected argument {arg}");
            exit(2)
        };
        let value = args.next().unwrap_or_else(|| {
            eprintln!("flag --{key} needs a value");
            exit(2)
        });
        match key {
            "tasks" => bench.tasks = parse(key, &value),
            "workers" => bench.workers = parse(key, &value),
            "window" => bench.window = parse(key, &value),
            "epoch" => bench.epoch = parse(key, &value),
            "seed" => bench.seed = parse(key, &value),
            "out" => bench.out = Some(value),
            "mode" => {
                bench.streaming = match value.as_str() {
                    "streaming" => true,
                    "buffered" => false,
                    other => {
                        eprintln!("unknown --mode {other} (streaming|buffered)");
                        exit(2)
                    }
                }
            }
            other => {
                eprintln!("unknown flag --{other}");
                exit(2)
            }
        }
    }
    if !bench.epoch.is_finite() || bench.epoch <= 0.0 {
        eprintln!("--epoch must be a positive number of virtual seconds");
        exit(2);
    }
    match bench.run() {
        Ok(report) => println!("{}", bench.json(&report)),
        Err(e) => {
            eprintln!("{e}");
            exit(2)
        }
    }
}
