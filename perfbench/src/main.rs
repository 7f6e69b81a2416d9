//! The snapstab benchmark: four workloads that split the cost of serving
//! and of checking what was served by layer. See `README.md` beside this
//! package for the workloads, the metrics and what each per-layer metric
//! should move.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mutex-mux-inmem --seed 1 --seconds 10 --trace 0
//! ```
//!
//! A run repeats whole rounds of its workload until `--seconds` have
//! passed, checks every round's outputs, and prints one JSON result as
//! the last line of standard output. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` alternates untraced and traced rounds and
//! reports the per-layer metrics. The exit code is 0 only when every
//! operation completed and passed its checks.

mod audit;
mod forward;
mod layers;
mod measure;
mod mutex;
mod report;
mod sim;
mod spans;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use measure::{median_s, peak_rss_mib, pin_to_one_cpu, quantile_ms, ratio, Cpu};
use report::{Metrics, Outcome, END_TO_END, PER_LAYER};

/// The workloads, by the name `--workload` takes.
const WORKLOADS: &[&str] = &[
    "mutex-mux-inmem",
    "forward-checked",
    "mutex-udp-n3",
    "sim-me-corrupted",
];

/// One round of a workload, as measured.
#[derive(Debug, Default)]
pub struct Round {
    /// Operations the round set out to complete.
    pub attempted: u64,
    /// Operations completed.
    pub ops: u64,
    /// Time from the round's start until its fleet and links were ready.
    pub setup: Duration,
    /// Time from the first request offered to the end of the round.
    pub busy: Duration,
    /// Process CPU time over setup and busy time.
    pub cpu: Cpu,
    /// Per-operation latencies.
    pub latencies: Vec<Duration>,
    /// Check violations; any one fails the whole round.
    pub problems: Vec<String>,
}

/// Rounds of one kind (untraced or traced) summed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Rounds run.
    pub rounds: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Operations completed.
    pub ops: u64,
    /// Summed busy time.
    pub busy: Duration,
    /// Summed CPU time.
    pub cpu: Cpu,
    /// Every latency.
    pub latencies: Vec<Duration>,
    /// Every round's setup time.
    pub setups: Vec<Duration>,
    /// Every violation.
    pub problems: Vec<String>,
}

impl Round {
    /// Operations that count as failed: all of them when any check
    /// failed or any operation did not complete, which also becomes a
    /// problem of its own.
    fn settle(&mut self) -> u64 {
        if self.problems.is_empty() && self.ops == self.attempted {
            return 0;
        }
        if self.problems.is_empty() {
            self.problems.push(format!(
                "{} of {} operations completed",
                self.ops, self.attempted
            ));
        }
        self.attempted
    }
}

impl Tally {
    fn absorb(&mut self, mut round: Round) {
        self.rounds += 1;
        self.attempted += round.attempted;
        let failed = round.settle();
        self.failed += failed;
        if failed == 0 {
            self.ops += round.ops;
        }
        self.problems.append(&mut round.problems);
        self.busy += round.busy;
        self.cpu.add(round.cpu);
        self.latencies.append(&mut round.latencies);
        self.setups.push(round.setup);
    }

    /// Completed operations per second of busy time.
    pub fn served_per_s(&self) -> f64 {
        ratio(self.ops as f64, self.busy.as_secs_f64())
    }
}

/// A workload: rounds, an optional untimed audit, and its per-layer
/// metrics.
pub trait Workload {
    /// Runs one round from `seed`; `traced` turns the spans on.
    fn round(&mut self, seed: u64, traced: bool) -> Round;

    /// An untimed checking round run once after the measured rounds;
    /// only its operations, completions and problems count.
    fn audit(&mut self, _seed: u64) -> Round {
        Round::default()
    }

    /// Adds the per-layer metrics gathered over the traced rounds.
    fn layers(&mut self, traced: &Tally, seed: u64, out: &mut Metrics);
}

/// A 64-bit mix of the run seed and a round index (SplitMix64), so
/// every round draws distinct inputs and a seed always gives the same.
pub fn round_seed(seed: u64, round: u64) -> u64 {
    let mut z = seed ^ round.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn workload(name: &str) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "mutex-mux-inmem" => Box::new(mutex::MutexWorkload::in_memory()),
        "mutex-udp-n3" => {
            // One worker and three demultiplexer threads hand every
            // datagram across threads; spread over the host's CPUs, their
            // pace follows the host's scheduling more than the net layer.
            pin_to_one_cpu().map_err(|e| format!("pinning to one CPU: {e}"))?;
            Box::new(mutex::MutexWorkload::udp())
        }
        "forward-checked" => Box::new(forward::ForwardWorkload::new()),
        "sim-me-corrupted" => Box::new(sim::SimMeWorkload::new()),
        _ => unreachable!("validated by parse_args"),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut w = match workload(&args.workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let mut tallies = [Tally::default(), Tally::default()];
    let started = Instant::now();
    let mut k = 0;
    let mut peak_rss = 0.0;
    // Whole rounds only, and in a traced run at least one of each kind.
    while k < 1 + u64::from(args.trace) || started.elapsed() < budget {
        let traced = args.trace && k % 2 == 1;
        let round = w.round(round_seed(args.seed, k), traced);
        tallies[usize::from(traced)].absorb(round);
        if k == 0 {
            // The footprint of one round in a fresh process. Later rounds
            // raise the high-water mark by whatever the allocator retains
            // from earlier ones, which differs from run to run.
            peak_rss = peak_rss_mib();
        }
        k += 1;
    }
    let mut audit = w.audit(args.seed);
    let audit_failed = audit.settle();

    let [plain, traced] = &tallies;
    let mut metrics = Metrics::new();
    if args.trace {
        w.layers(traced, args.seed, &mut metrics);
        let traced_rate = traced.served_per_s();
        metrics.insert("bench.traced_served_per_s", traced_rate);
        metrics.insert(
            "bench.tracing_overhead",
            ratio(plain.served_per_s() - traced_rate, plain.served_per_s()),
        );
    } else {
        metrics.insert("served_per_s", plain.served_per_s());
        metrics.insert("latency_p50_ms", quantile_ms(&plain.latencies, 0.5));
        metrics.insert(
            "cpu_ms_per_op",
            ratio(plain.cpu.total().as_secs_f64() * 1e3, plain.ops as f64),
        );
        metrics.insert("peak_rss_mb", peak_rss);
        metrics.insert("setup_s", median_s(&plain.setups));
    }
    let attempted = plain.attempted + traced.attempted + audit.attempted;
    let failed = plain.failed + traced.failed + audit_failed;
    let problems: Vec<&String> = plain
        .problems
        .iter()
        .chain(&traced.problems)
        .chain(&audit.problems)
        .collect();
    let outcome = Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
    };
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    for p in problems.iter().take(20) {
        println!("VIOLATION: {p}");
    }
    println!(
        "{} seed {}: {} rounds ({} traced), {attempted} operations attempted, {failed} failed, {:.1}s",
        args.workload,
        args.seed,
        plain.rounds + traced.rounds,
        traced.rounds,
        started.elapsed().as_secs_f64()
    );
    print!("{}", outcome.table(catalogue));
    println!("{}", outcome.json(catalogue));
    if outcome.correct && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_seeds_are_distinct_and_repeatable() {
        let seeds: Vec<u64> = (0..64).map(|k| round_seed(7, k)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
        assert_eq!(seeds[3], round_seed(7, 3));
        assert_ne!(round_seed(7, 0), round_seed(8, 0));
    }

    #[test]
    fn a_round_with_a_violation_fails_all_its_operations() {
        let mut tally = Tally::default();
        tally.absorb(Round {
            attempted: 10,
            ops: 10,
            busy: Duration::from_secs(1),
            ..Round::default()
        });
        tally.absorb(Round {
            attempted: 10,
            ops: 10,
            problems: vec!["overlap".into()],
            ..Round::default()
        });
        tally.absorb(Round {
            attempted: 10,
            ops: 7,
            ..Round::default()
        });
        assert_eq!((tally.attempted, tally.failed, tally.ops), (30, 20, 10));
        assert_eq!(tally.problems.len(), 2);
        assert_eq!(tally.served_per_s(), 10.0);
    }
}
