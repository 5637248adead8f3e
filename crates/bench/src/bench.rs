//! The one place in the repository (besides kbench and the root
//! package's examples) that reads the wall clock: a lightweight
//! sampling harness for the `benches/*` suites, replacing `criterion`.
//!
//! Model: per benchmark, a 100 ms warmup calibrates how many iterations
//! fit in one 10 ms sample window, then 30 timed batches are taken and
//! reduced to min / median / p95 / mean nanoseconds per iteration. Each
//! suite prints an aligned text table and writes a JSON report to
//! `target/testkit-bench/<suite>.json`.
#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the sampling harness is the workspace's single wall-clock reader; clippy.toml bans it everywhere else"
)]

use std::time::{Duration, Instant};

const SAMPLES: usize = 30;
const WARMUP: Duration = Duration::from_millis(100);
const SAMPLE_TARGET: Duration = Duration::from_millis(10);

/// Work-per-iteration annotation, for derived throughput columns.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Bytes processed per iteration (reported as MB/s).
    Bytes(u64),
    /// Logical elements processed per iteration (reported as Kelem/s).
    Elements(u64),
}

/// One benchmark's reduced measurements (nanoseconds per iteration).
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Benchmark id, e.g. `"enc_layer_seal/v4-pcbc/1024"`.
    pub id: String,
    /// Timed batches taken.
    pub samples: usize,
    /// Iterations per batch.
    pub iters_per_sample: u64,
    /// Fastest batch, ns/iter.
    pub min_ns: f64,
    /// Median batch, ns/iter.
    pub median_ns: f64,
    /// 95th-percentile batch, ns/iter.
    pub p95_ns: f64,
    /// Mean over all batches, ns/iter.
    pub mean_ns: f64,
    /// Optional work annotation for throughput reporting.
    pub throughput: Option<Throughput>,
}

impl BenchResult {
    fn throughput_cell(&self) -> String {
        match self.throughput {
            None => String::new(),
            Some(Throughput::Bytes(b)) => {
                format!("{:.1} MB/s", b as f64 / self.median_ns * 1e9 / 1e6)
            }
            Some(Throughput::Elements(n)) => {
                format!("{:.1} Kelem/s", n as f64 / self.median_ns * 1e9 / 1e3)
            }
        }
    }

    fn json(&self) -> String {
        let tp = match self.throughput {
            None => "null".to_string(),
            Some(Throughput::Bytes(b)) => format!("{{\"bytes\":{b}}}"),
            Some(Throughput::Elements(n)) => format!("{{\"elements\":{n}}}"),
        };
        format!(
            "{{\"id\":{id:?},\"samples\":{samples},\"iters_per_sample\":{ips},\
             \"min_ns\":{min:.1},\"median_ns\":{median:.1},\"p95_ns\":{p95:.1},\
             \"mean_ns\":{mean:.1},\"throughput\":{tp}}}",
            id = self.id,
            samples = self.samples,
            ips = self.iters_per_sample,
            min = self.min_ns,
            median = self.median_ns,
            p95 = self.p95_ns,
            mean = self.mean_ns,
        )
    }
}

/// A bench suite: runs benchmarks, accumulates results, reports on
/// [`Harness::finish`].
pub struct Harness {
    suite: String,
    samples: usize,
    warmup: Duration,
    sample_target: Duration,
    results: Vec<BenchResult>,
}

impl Harness {
    /// A harness for one suite (usually one `benches/*.rs` file).
    pub fn new(suite: &str) -> Self {
        Harness {
            suite: suite.to_string(),
            samples: SAMPLES,
            warmup: WARMUP,
            sample_target: SAMPLE_TARGET,
            results: Vec::new(),
        }
    }

    /// Benchmarks `f`, recording under `id`.
    pub fn run<R>(&mut self, id: &str, f: impl FnMut() -> R) {
        self.record(id, None, 1, f);
    }

    /// Benchmarks `f` with a throughput annotation.
    pub fn run_throughput<R>(&mut self, id: &str, tp: Throughput, f: impl FnMut() -> R) {
        self.record(id, Some(tp), 1, f);
    }

    /// Benchmarks `f`, which does `units` equal pieces of work per call,
    /// recording nanoseconds per piece: one block's share of a
    /// multi-lane call, say.
    pub fn run_per_unit<R>(&mut self, id: &str, units: u64, f: impl FnMut() -> R) {
        self.record(id, None, units.max(1), f);
    }

    /// Benchmarks `routine`, re-running `setup` untimed before every
    /// timed call (for routines that consume fresh state — the
    /// `iter_with_setup` pattern).
    pub fn run_with_setup<T, R>(
        &mut self,
        id: &str,
        mut setup: impl FnMut() -> T,
        mut routine: impl FnMut(T) -> R,
    ) {
        // Warmup: at least one full setup+routine pass.
        let warm_start = Instant::now();
        loop {
            let input = setup();
            std::hint::black_box(routine(input));
            if warm_start.elapsed() >= self.warmup {
                break;
            }
        }
        let mut per_iter = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let input = setup();
            let t0 = Instant::now();
            std::hint::black_box(routine(input));
            per_iter.push(t0.elapsed().as_secs_f64() * 1e9);
        }
        self.summarize(id, None, 1, per_iter);
    }

    fn record<R>(&mut self, id: &str, tp: Option<Throughput>, units: u64, mut f: impl FnMut() -> R) {
        // Warmup and calibration: count iterations in the warmup window,
        // then size batches to the per-sample target.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < self.warmup || warm_iters == 0 {
            std::hint::black_box(f());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;
        let batch = ((self.sample_target.as_secs_f64() / per_iter) as u64).clamp(1, 1_000_000_000);

        let mut per_iter_ns = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t0 = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            per_iter_ns.push(t0.elapsed().as_secs_f64() * 1e9 / (batch * units) as f64);
        }
        self.summarize(id, tp, batch, per_iter_ns);
    }

    fn summarize(&mut self, id: &str, tp: Option<Throughput>, batch: u64, mut ns: Vec<f64>) {
        ns.sort_by(|a, b| a.total_cmp(b));
        let n = ns.len();
        let result = BenchResult {
            id: id.to_string(),
            samples: n,
            iters_per_sample: batch,
            min_ns: ns[0],
            median_ns: ns[n / 2],
            p95_ns: ns[(n * 95 / 100).min(n - 1)],
            mean_ns: ns.iter().sum::<f64>() / n as f64,
            throughput: tp,
        };
        eprintln!(
            "  {:<44} median {:>12}  p95 {:>12}  {}",
            result.id,
            fmt_ns(result.median_ns),
            fmt_ns(result.p95_ns),
            result.throughput_cell()
        );
        self.results.push(result);
    }

    /// Prints the suite table and writes the JSON report. Returns the
    /// results for programmatic use.
    pub fn finish(self) -> Vec<BenchResult> {
        let mut out = String::new();
        out.push_str(&format!(
            "\n== bench suite: {} ({} samples/bench) ==\n",
            self.suite, self.samples
        ));
        out.push_str(&format!(
            "{:<44} {:>12} {:>12} {:>12} {:>12}  {}\n",
            "id", "min", "median", "p95", "mean", "throughput"
        ));
        out.push_str(&"-".repeat(110));
        out.push('\n');
        for r in &self.results {
            out.push_str(&format!(
                "{:<44} {:>12} {:>12} {:>12} {:>12}  {}\n",
                r.id,
                fmt_ns(r.min_ns),
                fmt_ns(r.median_ns),
                fmt_ns(r.p95_ns),
                fmt_ns(r.mean_ns),
                r.throughput_cell(),
            ));
        }
        println!("{out}");

        let json = format!(
            "{{\"suite\":{:?},\"results\":[{}]}}",
            self.suite,
            self.results.iter().map(BenchResult::json).collect::<Vec<_>>().join(",")
        );
        let dir = std::path::Path::new("target").join("testkit-bench");
        if std::fs::create_dir_all(&dir).is_ok() {
            let path = dir.join(format!("{}.json", self.suite));
            if std::fs::write(&path, &json).is_ok() {
                println!("json report: {}", path.display());
            }
        }
        self.results
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} us", ns / 1e3)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Harness {
        let mut h = Harness::new("selftest");
        h.samples = 5;
        h.warmup = Duration::from_millis(1);
        h.sample_target = Duration::from_millis(1);
        h
    }

    #[test]
    fn measures_and_orders_stats() {
        let mut h = tiny();
        h.run("noop", || std::hint::black_box(1u64 + 1));
        h.run_throughput("tp", Throughput::Bytes(1024), || std::hint::black_box([0u8; 64]));
        let mut sink = 0u64;
        h.run_with_setup("setup", || 21u64, |v| sink = v * 2);
        let results = h.results.clone();
        assert_eq!(results.len(), 3);
        for r in &results {
            assert!(r.min_ns <= r.median_ns && r.median_ns <= r.p95_ns, "{r:?}");
            assert!(r.min_ns > 0.0);
        }
        assert!(results[1].throughput_cell().contains("MB/s"));
    }

    #[test]
    fn json_is_well_formed_enough() {
        let r = BenchResult {
            id: "x/y".into(),
            samples: 3,
            iters_per_sample: 10,
            min_ns: 1.0,
            median_ns: 2.0,
            p95_ns: 3.0,
            mean_ns: 2.0,
            throughput: Some(Throughput::Elements(512)),
        };
        let j = r.json();
        assert!(j.contains("\"id\":\"x/y\""));
        assert!(j.contains("\"median_ns\":2.0"));
        assert!(j.contains("\"elements\":512"));
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(512.0), "512 ns");
        assert_eq!(fmt_ns(1500.0), "1.50 us");
        assert_eq!(fmt_ns(2_500_000.0), "2.50 ms");
    }
}
