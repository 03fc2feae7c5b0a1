//! Offline stand-in for the `criterion` crate (see `shims/README.md`).
//!
//! Implements the group/bench/iter API surface the workspace's benches use,
//! with plain wall-clock timing and stdout reporting instead of criterion's
//! statistical machinery: each benchmark prints the median, mean and the
//! min–max spread of its per-sample times. Good enough to smoke-run every
//! bench and compare numbers with their noise in view; not a statistics
//! engine.
//!
//! Honors `CRITERION_SAMPLE_OVERRIDE=<n>` to force a sample count (CI smoke
//! runs set it to 1).

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {}

impl Criterion {
    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("\n== group {name}");
        BenchmarkGroup {
            _c: self,
            sample_size: 10,
        }
    }

    /// Run a single benchmark outside any group.
    pub fn bench_function<F>(&mut self, id: impl Display, f: F)
    where
        F: FnMut(&mut Bencher),
    {
        let mut g = self.benchmark_group("(ungrouped)");
        g.bench_function(id, f);
        g.finish();
    }
}

/// A named benchmark identifier (`function/parameter`).
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// Compose an id from a function name and a parameter.
    pub fn new(function: impl Display, parameter: impl Display) -> Self {
        Self {
            name: format!("{function}/{parameter}"),
        }
    }

    /// An id carrying only a parameter.
    pub fn from_parameter(parameter: impl Display) -> Self {
        Self {
            name: parameter.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name)
    }
}

/// A group of benchmarks sharing configuration.
pub struct BenchmarkGroup<'c> {
    _c: &'c mut Criterion,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Set how many timed samples to collect per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    /// Benchmark a closure.
    pub fn bench_function<F>(&mut self, id: impl Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run(id, &mut f);
        self
    }

    /// Benchmark a closure against an input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Display,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.run(id, &mut |b: &mut Bencher| f(b, input));
        self
    }

    /// End the group (reporting already happened per bench).
    pub fn finish(self) {}

    fn run(&mut self, id: impl Display, f: &mut dyn FnMut(&mut Bencher)) {
        let samples = std::env::var("CRITERION_SAMPLE_OVERRIDE")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(self.sample_size)
            .max(1);
        let mut b = Bencher {
            samples,
            times: Vec::with_capacity(samples),
        };
        f(&mut b);
        match Summary::of(&mut b.times) {
            Some(s) => println!(
                "  {id:<40} {:>12.3?}/iter median (mean {:.3?}, min {:.3?}, max {:.3?}; {} iters)",
                s.median,
                s.mean,
                s.min,
                s.max,
                b.times.len()
            ),
            None => println!("  {id:<40} (no iterations)"),
        }
    }
}

/// Per-sample time statistics of one benchmark.
#[derive(Debug, PartialEq)]
struct Summary {
    median: Duration,
    mean: Duration,
    min: Duration,
    max: Duration,
}

impl Summary {
    /// Summarize `times` (sorted in place); `None` when empty. The median
    /// of an even count is the mean of the two middle samples.
    fn of(times: &mut [Duration]) -> Option<Summary> {
        let n = times.len();
        if n == 0 {
            return None;
        }
        times.sort_unstable();
        let median = if n % 2 == 1 {
            times[n / 2]
        } else {
            (times[n / 2 - 1] + times[n / 2]) / 2
        };
        Some(Summary {
            median,
            mean: times.iter().sum::<Duration>() / n as u32,
            min: times[0],
            max: times[n - 1],
        })
    }
}

/// Passed to benchmark closures; `iter` times the hot loop.
pub struct Bencher {
    samples: usize,
    times: Vec<Duration>,
}

impl Bencher {
    /// Time `routine`, once per sample (plus one untimed warm-up).
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        black_box(routine());
        for _ in 0..self.samples {
            let t0 = Instant::now();
            black_box(routine());
            self.times.push(t0.elapsed());
        }
    }
}

/// Declare a group-runner function from benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Declare `main` from group-runner functions.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_counts_iters() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("t");
        g.sample_size(3);
        let mut runs = 0u32;
        g.bench_function("count", |b| {
            b.iter(|| {
                runs += 1;
                runs
            })
        });
        g.finish();
        // 1 warm-up + 3 samples.
        assert_eq!(runs, 4);
    }

    #[test]
    fn summary_reports_median_and_spread() {
        let ms = Duration::from_millis;
        assert_eq!(Summary::of(&mut []), None);
        let odd = Summary::of(&mut [ms(9), ms(1), ms(2)]).unwrap();
        assert_eq!(
            odd,
            Summary {
                median: ms(2),
                mean: ms(4),
                min: ms(1),
                max: ms(9),
            }
        );
        let even = Summary::of(&mut [ms(4), ms(1), ms(3), ms(2)]).unwrap();
        assert_eq!(
            (even.median, even.min, even.max),
            (ms(2) + ms(1) / 2, ms(1), ms(4))
        );
    }

    #[test]
    fn bench_with_input_passes_input() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("t");
        g.sample_size(1);
        g.bench_with_input(BenchmarkId::new("x", 5), &5u32, |b, &v| {
            b.iter(|| assert_eq!(v, 5))
        });
        g.finish();
    }
}
