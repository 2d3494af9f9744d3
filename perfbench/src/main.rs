//! The repository's benchmark: three workloads over the WebQA engine and
//! its serving daemon, each printing its end-to-end metrics (untraced)
//! or its per-layer metrics (traced) as one JSON line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch_cold --seed 1 --seconds 30 --trace 0
//! ```
//!
//! * `batch_cold` — in-process engine, all 25 corpus tasks, a fresh
//!   engine per task (`batch.rs`);
//! * `serve_hot` — closed loop over line protocol + HTTP against a
//!   2-shard daemon whose result cache is warm (`serve.rs`);
//! * `serve_open` — open loop at fixed absolute rates against a 1-shard
//!   daemon, every request distinct (`serve.rs`).
//!
//! The last stdout line is `{"correct", "attempted", "failed",
//! "metrics"}`; the line before it is the full record: provenance
//! (cores, CPU model, git revision, scale knobs, config digest), every
//! metric under its name, and each output check with its verdict.
//! `NOTES.md` defines every metric per workload.

mod batch;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// End-to-end metrics, with units, as `BENCHMARK.json` lists them. Every
/// workload reports every one (`NOTES.md` gives each its meaning there).
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("tasks_per_s", "1/s"),
    ("task_p50_ms", "ms"),
    ("task_p90_ms", "ms"),
    ("test_f1_macro", "F1"),
    ("req_per_s", "1/s"),
    ("lat_p50_ms", "ms"),
    ("lat_p90_ms", "ms"),
    ("goodput_rps", "1/s"),
];

/// End-to-end figures printed in the record only: a p99 has fewer than
/// ten samples beyond it on two of the three workloads.
pub const RECORD_ONLY: [(&str, &str); 1] = [("lat_p99_ms", "ms")];

/// Per-layer metrics, with units. A layer a workload does not exercise
/// (or does not measure) reads 0 there.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("html.parse_ms_per_page", "ms"),
    ("store.intern_rtt_ms", "ms"),
    ("engine.prepare_ms", "ms"),
    ("synth.base_features_ms", "ms"),
    ("synth.query_features_ms", "ms"),
    ("synth.synthesize_ms", "ms"),
    ("synth.guards_yielded", "count"),
    ("synth.locators_expanded", "count"),
    ("synth.locators_pruned", "count"),
    ("synth.extractors_enumerated", "count"),
    ("synth.extractors_pruned", "count"),
    ("synth.analysis_pruned", "count"),
    ("synth.memo_hits", "count"),
    ("synth.locator_memo_hits", "count"),
    ("synth.programs", "count"),
    ("synth.prune_ratio", "ratio"),
    ("select.select_ms", "ms"),
    ("select.behaviour_groups", "count"),
    ("select.dedup_ratio", "ratio"),
    ("answers.eval_ms", "ms"),
    ("cache.result_hit_ratio", "ratio"),
    ("cache.base_hit_ratio", "ratio"),
    ("cache.feature_hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("server.protocol.parse_us", "us"),
    ("server.protocol.render_us", "us"),
    ("server.handle_us", "us"),
    ("server.net.overhead_ms", "ms"),
    ("server.http.overhead_ms", "ms"),
    ("server.pool.queue_depth_mean", "count"),
    ("server.pool.inflight_mean", "count"),
    ("server.pool.queue_wait_ms", "ms"),
    ("server.pool.shed", "count"),
    ("server.pool.deadline_exceeded", "count"),
    ("server.shard.page_skew", "ratio"),
    ("server.shard.request_skew", "ratio"),
    ("bench.gen_lag_p99_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
    ("trace.task_coverage_min", "ratio"),
];

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Named output checks: (name, passed, detail).
    pub checks: Vec<(String, bool, String)>,
    /// End-to-end metrics by name (see [`END_TO_END`]).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name (see [`PER_LAYER`]; traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Scale knobs and config digest for the record.
    pub knobs: Vec<(&'static str, String)>,
    /// Span-derived self time per layer, for the record.
    pub self_ms: Vec<(String, f64)>,
}

impl Report {
    pub fn check(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), passed, detail.into()));
    }
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END
                .iter()
                .chain(&RECORD_ONLY)
                .any(|(n, _)| *n == name),
            "{name}"
        );
        self.e2e.insert(name, value);
    }
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.layers.insert(name, value);
    }
    pub fn knob(&mut self, name: &'static str, value: impl ToString) {
        self.knobs.push((name, value.to_string()));
    }
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["batch_cold", "serve_hot", "serve_open"];

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let origin = Instant::now();
    let mut tracer = trace::Tracer::new(args.trace);
    let mut report = match args.workload.as_str() {
        "batch_cold" => batch::run(&args, &mut tracer),
        "serve_hot" => serve::run_hot(&args, &mut tracer),
        _ => serve::run_open(&args, &mut tracer),
    };
    for (name, _) in END_TO_END {
        if !report.e2e.contains_key(name) {
            report.check("metrics_complete", false, format!("{name} not measured"));
        }
    }
    if args.trace {
        let path = std::path::PathBuf::from(".perfbench_out")
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write(&path, origin) {
            Ok(()) => eprintln!(
                "perfbench: {} spans -> {}",
                tracer.spans.len(),
                path.display()
            ),
            Err(e) => report.check("trace_written", false, e.to_string()),
        }
        report.self_ms = tracer
            .self_times()
            .into_iter()
            .map(|(name, (_, _, self_ms))| (name.to_string(), self_ms))
            .collect();
    }
    let correct = report.checks.iter().all(|(_, ok, _)| *ok);
    println!("{}", record_line(&args, &report));
    let metrics = if args.trace {
        metric_fields(&PER_LAYER, &report.layers)
    } else {
        metric_fields(&END_TO_END, &report.e2e)
    };
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        report.attempted, report.failed,
    );
}

/// `"name":{"value":v,"unit":u}` for every listed metric, in list order.
fn metric_fields(list: &[(&str, &str)], values: &BTreeMap<&'static str, f64>) -> String {
    list.iter()
        .map(|(name, unit)| {
            let value = finite(values.get(name).copied().unwrap_or(0.0));
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// JSON has no NaN/inf; a metric without samples reads 0 (and adding
/// 0.0 turns the -0.0 of an empty sum into 0).
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v + 0.0
    } else {
        0.0
    }
}

/// The full record: provenance, every metric, every check.
fn record_line(args: &Args, r: &Report) -> String {
    let esc = |s: &str| serde_json::to_string(&s).unwrap_or_else(|_| "\"?\"".into());
    let mut out = String::from("{\"record\":\"perfbench\"");
    let _ = write!(
        out,
        ",\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"cpu\":{},\"git_rev\":{}",
        esc(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        esc(&cpu_model()),
        esc(&git_rev()),
    );
    out.push_str(",\"knobs\":{");
    let knobs: Vec<String> = r
        .knobs
        .iter()
        .map(|(k, v)| format!("{}:{}", esc(k), esc(v)))
        .collect();
    out.push_str(&knobs.join(","));
    let fail_frac = r.failed as f64 / r.attempted.max(1) as f64;
    let _ = write!(
        out,
        "}},\"attempted\":{},\"failed\":{},\"fail_frac\":{fail_frac}",
        r.attempted, r.failed
    );
    let all: Vec<(&str, &str)> = END_TO_END.iter().chain(&RECORD_ONLY).copied().collect();
    let _ = write!(out, ",\"end_to_end\":{{{}}}", metric_fields(&all, &r.e2e));
    let _ = write!(
        out,
        ",\"per_layer\":{{{}}}",
        metric_fields(&PER_LAYER, &r.layers)
    );
    let self_ms: Vec<String> = r
        .self_ms
        .iter()
        .map(|(k, v)| format!("{}:{}", esc(k), finite(*v)))
        .collect();
    let _ = write!(out, ",\"self_ms\":{{{}}}", self_ms.join(","));
    let checks: Vec<String> = r
        .checks
        .iter()
        .map(|(k, ok, detail)| format!("{}:{{\"pass\":{ok},\"detail\":{}}}", esc(k), esc(detail)))
        .collect();
    let _ = write!(out, ",\"checks\":{{{}}}}}", checks.join(","));
    out
}

/// Set-up times in seconds, taken in bursts at quiet points spread over
/// the run. A shared machine's speed changes in regimes that last from
/// seconds to minutes, and a set-up of a few milliseconds timed back to
/// back only reads whichever regime it fell in; spread over the run, the
/// samples read the same mix as the timed window.
#[derive(Default)]
pub struct SetupSamples(Vec<f64>);

impl SetupSamples {
    /// Times `set_up` until `min` calls are made and `seconds` are
    /// spent, and returns the last call's result. Each result is dropped
    /// before the next call starts, outside the timed span.
    pub fn burst<T>(
        &mut self,
        min: usize,
        seconds: f64,
        mut set_up: impl FnMut() -> Result<T, String>,
    ) -> Result<T, String> {
        let start = Instant::now();
        let mut calls = 0;
        loop {
            let t = Instant::now();
            let out = set_up();
            self.0.push(t.elapsed().as_secs_f64());
            calls += 1;
            if out.is_err() || (calls >= min && start.elapsed().as_secs_f64() >= seconds) {
                return out;
            }
        }
    }

    /// Reports the median as `setup_s`, and the sample count.
    pub fn report(&self, report: &mut Report) {
        report.e2e("setup_s", median(&self.0));
        report.knob("setups", self.0.len());
    }
}

/// Returns the heap that set-up freed to the kernel ([`trim_heap`]) and
/// resets the peak resident set of this process to its current size
/// (`clear_refs` value 5), so that [`peak_rss_mb`] sees only what
/// follows. Each workload calls it once its set-up is done, and records
/// whether each step took and the resident set it starts from.
pub fn reset_peak_rss(report: &mut Report) {
    report.knob("malloc_trimmed", trim_heap());
    let reset = std::fs::write("/proc/self/clear_refs", "5").is_ok();
    report.knob("peak_rss_reset", reset);
    report.knob("window_start_rss_mb", format!("{:.1}", status_mb("VmRSS:")));
}

/// Hands the memory that set-up freed back to the kernel (glibc's
/// `malloc_trim` over every arena), so the high-water mark starts from
/// what is live rather than from how many arenas set-up happened to use.
/// Returns whether it ran.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_heap() -> bool {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` only releases free heap pages; it takes no
    // pointers and is safe to call from any thread at any time.
    unsafe { malloc_trim(0) };
    true
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_heap() -> bool {
    false
}

/// Limits glibc's malloc to one arena (`mallopt(M_ARENA_MAX, 1)`) for the
/// rest of the process, and returns whether it took. It must run before
/// the process starts its second thread. By default every thread that
/// meets a locked arena may open another, up to 8 per core, and each
/// keeps memory that `malloc_trim` cannot return, so a process's resident
/// set depends on how many arenas its threads happened to open.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn one_malloc_arena() -> bool {
    const M_ARENA_MAX: i32 = -8;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` takes two integers and only sets a malloc tunable.
    unsafe { mallopt(M_ARENA_MAX, 1) == 1 }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn one_malloc_arena() -> bool {
    false
}

/// Peak resident set of this process (the benchmark and, for the serve
/// workloads, the in-process daemon) since [`reset_peak_rss`], from
/// `/proc/self/status`. Read at the end of the timed window, before
/// references, twins or traced layers run.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// A size field of `/proc/self/status` in MB (0 where it cannot be read).
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out revision, read from `.git` without running git; a
/// source tree without one (an exported checkout) reads "unknown".
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a, for config digests that are stable across builds.
pub fn digest(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Nearest-rank percentile (`p` in 0..=1) of unsorted samples.
pub fn nearest_rank(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Harrell–Davis estimate of the `p` quantile (`p` in (0, 1)) of finite
/// samples: a mean of every order statistic weighted by the
/// Beta(p(n+1), (1-p)(n+1)) mass over its rank interval. With a few
/// dozen samples a single order statistic jumps whenever noise swaps two
/// neighbours; this weighted mean moves smoothly.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let n = samples.len();
    if n < 2 {
        return samples.first().copied().unwrap_or(f64::NAN);
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let (a, b) = (p * (n + 1) as f64, (1.0 - p) * (n + 1) as f64);
    // Beta mass of each interval [i/n, (i+1)/n], by the midpoint rule on
    // a log-density shifted by its maximum (no overflow for large n).
    const STEPS: usize = 32;
    let h = 1.0 / (n * STEPS) as f64;
    let log_density = |x: f64| (a - 1.0) * x.ln() + (b - 1.0) * (1.0 - x).ln();
    let grid = |j: usize| (j as f64 + 0.5) * h;
    let peak = (0..n * STEPS)
        .map(|j| log_density(grid(j)))
        .fold(f64::MIN, f64::max);
    let mass: Vec<f64> = (0..n)
        .map(|i| {
            (0..STEPS)
                .map(|k| (log_density(grid(i * STEPS + k)) - peak).exp())
                .sum()
        })
        .collect();
    let total: f64 = mass.iter().sum();
    v.iter().zip(&mass).map(|(x, w)| x * w / total).sum()
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// A small deterministic generator (splitmix64) so inputs depend on the
/// seed alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harrell_davis_tracks_the_order_statistics() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert!((percentile(&v, 0.5) - 51.0).abs() < 0.05);
        assert!((percentile(&v, 0.9) - 91.0).abs() < 0.5);
        assert_eq!(percentile(&[3.0], 0.9), 3.0);
        assert_eq!(nearest_rank(&v, 0.9), 91.0);
    }
}
